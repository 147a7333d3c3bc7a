"""One observability capture per campaign, shard worker and experiment.

``obs.capture()`` sends everything recorded inside it to a fresh tracer
and registry, and the caller decides whether to ``obs.absorb`` it.  So
a campaign's ``obs_metrics`` cannot depend on what ran before it in the
process, and work run through ``repro.parallel`` reaches the caller's
tracer and registry only through what its workers return, inline or
pooled.
"""

import pytest

from repro import obs
from repro.content.keywords import Keyword
from repro.experiments.common import ExperimentScale
from repro.experiments.dataset_a import run_dataset_a_experiment
from repro.measure.driver import run_dataset_a
from repro.measure.streaming import run_streaming_campaign
from repro.parallel import map_shards, run_streaming_sharded
from repro.testbed.scenario import Scenario, ScenarioConfig
from repro.workload import OpenLoopWorkload, WorkloadSpec

KEYWORDS = [Keyword(text="obs shard parity", popularity=0.6,
                    complexity=0.4)]
STREAM_CONFIG = ScenarioConfig(seed=5, vantage_count=8,
                               keyed_service_draws=True,
                               deterministic_services=True)
STREAM_SPEC = WorkloadSpec(seed=5, users=200, duration=300.0,
                           session_rate=0.5, keyword_count=64,
                           services=("google-like",), max_events=120)


@pytest.fixture(autouse=True)
def _obs_isolation():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def _live_state():
    return (obs.runtime.tracer.snapshot(),
            obs.runtime.metrics.snapshot().as_records())


# ---------------------------------------------------------------------------
# the primitive
# ---------------------------------------------------------------------------
def test_capture_records_apart_until_absorbed_once():
    obs.enable()
    outer_tracer, outer_metrics = obs.runtime.tracer, obs.runtime.metrics
    with obs.capture() as captured:
        assert obs.runtime.tracer is captured.tracer
        assert obs.runtime.metrics is captured.metrics
        obs.runtime.metrics.inc("work", 2)
        obs.runtime.tracer.add(obs.Span("session", 0.0, 1.0))
    assert obs.runtime.tracer is outer_tracer
    assert obs.runtime.metrics is outer_metrics
    assert _live_state() == ([], [])
    obs.absorb(captured)
    obs.absorb(captured)  # absorbing moves: the second adds nothing
    assert len(obs.runtime.tracer.spans) == 1
    assert obs.runtime.metrics.snapshot().counters == {"work": 2}


def test_capture_restores_on_error_and_opens_nothing_when_off():
    with obs.capture() as captured:
        assert captured is None
    obs.enable()
    outer = obs.runtime.tracer
    with pytest.raises(RuntimeError):
        with obs.capture():
            raise RuntimeError("boom")
    assert obs.runtime.tracer is outer


# ---------------------------------------------------------------------------
# per-campaign captures are exact
# ---------------------------------------------------------------------------
def _dataset_a(seed, vantage_count):
    scenario = Scenario(ScenarioConfig(seed=seed,
                                       vantage_count=vantage_count,
                                       keyed_service_draws=True))
    return run_dataset_a(scenario, KEYWORDS, repeats=3, interval=5.0)


def test_campaign_metrics_do_not_depend_on_earlier_campaigns():
    obs.enable()
    alone = _dataset_a(2, 4).obs_metrics.scoped(obs.SCOPE_SIM)
    obs.reset()
    _dataset_a(1, 12)
    after = _dataset_a(2, 4).obs_metrics.scoped(obs.SCOPE_SIM)
    assert "fe.peak_concurrency" in alone.gauges
    assert after.gauges == alone.gauges
    duration = "campaign.session.duration_s"
    assert (after.histograms[duration]["min"],
            after.histograms[duration]["max"]) \
        == (alone.histograms[duration]["min"],
            alone.histograms[duration]["max"])
    assert after.as_records() == alone.as_records()


def _stream(spec):
    scenario = Scenario(STREAM_CONFIG)
    workload = OpenLoopWorkload(
        spec, [vp.name for vp in scenario.vantage_points])
    return run_streaming_campaign(scenario, workload)


def test_stream_after_another_campaign_matches_its_sharded_run():
    obs.enable()
    sharded = run_streaming_sharded(Scenario(STREAM_CONFIG), STREAM_SPEC,
                                    shards=2, processes=1)
    _stream(WorkloadSpec(seed=6, users=100, duration=200.0,
                         session_rate=0.4, keyword_count=64,
                         services=("google-like",), max_events=60))
    assert _stream(STREAM_SPEC).fingerprint() == sharded.fingerprint()


# ---------------------------------------------------------------------------
# parallel work reaches the caller only through its results
# ---------------------------------------------------------------------------
def _dataset_a_at_seed(seed):
    return run_dataset_a_experiment(ExperimentScale(
        vantage_count=8, repeats=1, interval=1.0, seed=seed))


@pytest.mark.parametrize("processes", [1, 2])
def test_seed_sweep_leaves_the_callers_capture_as_it_was(processes):
    obs.enable()
    obs.runtime.metrics.inc("caller.work")
    before = _live_state()
    results = map_shards(_dataset_a_at_seed, [1, 2], processes=processes)
    assert len(results) == 2
    assert _live_state() == before


def test_inline_sharded_stream_absorbs_each_metric_once():
    def stream_records():
        return [record for record in
                obs.runtime.metrics.snapshot().as_records()
                if record["name"].startswith("stream.")]

    obs.enable()
    _stream(STREAM_SPEC)
    serial = stream_records()
    obs.reset()
    run_streaming_sharded(Scenario(STREAM_CONFIG), STREAM_SPEC, shards=2,
                          processes=1)
    assert any(record["name"] == "stream.sessions" for record in serial)
    assert stream_records() == serial
