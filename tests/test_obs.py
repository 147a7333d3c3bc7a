"""Observability subsystem: registry/tracer units, gating, span trees.

The heavyweight check here is span-tree correctness for a full
Dataset-A campaign: every landmark event on a traced ``session`` span
must equal the corresponding timestamp that
:func:`repro.core.metrics.extract_timeline` computes from the same
packet capture — the spans are the paper's Figure-2 decomposition and
must never drift from the analysis pipeline.
"""

from fractions import Fraction

import pytest

from repro import obs
from repro.content.keywords import Keyword
from repro.core.metrics import extract_all_calibrated
from repro.experiments.common import calibrate_frontends_used
from repro.measure.driver import run_dataset_a
from repro.obs import runtime
from repro.obs.metrics import Histogram, MetricsSnapshot
from repro.obs.record import landmarks
from repro.testbed.scenario import Scenario, ScenarioConfig


@pytest.fixture(autouse=True)
def _obs_isolation():
    """Each test starts and ends with tracing off and state empty."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def _campaign(**kwargs):
    scenario = Scenario(ScenarioConfig(seed=11, vantage_count=4,
                                       keyed_service_draws=True,
                                       deterministic_services=True))
    keyword = Keyword(text="observability test", popularity=0.7,
                      complexity=0.4)
    dataset = run_dataset_a(scenario, [keyword], repeats=3, interval=4.0,
                            services=[Scenario.GOOGLE], **kwargs)
    return scenario, dataset


# ---------------------------------------------------------------------------
# metrics registry
# ---------------------------------------------------------------------------
def test_histogram_buckets_and_exact_sum():
    hist = Histogram(bounds=(1.0, 2.0))
    for value in (0.5, 1.0, 1.5, 3.0):
        hist.observe(value)
    assert hist.counts == [2, 1, 1]      # <=1.0, <=2.0, overflow
    assert hist.count == 4
    assert hist.total == Fraction(0.5) + Fraction(1.0) + Fraction(1.5) \
        + Fraction(3.0)
    assert (hist.minimum, hist.maximum) == (0.5, 3.0)


def test_snapshot_merge_is_order_independent_and_exact():
    reg = obs.MetricsRegistry()
    # Values chosen so float summation order would matter without the
    # Fraction accumulator: (a + b) + c != a + (b + c) in binary64.
    values = [0.1, 0.2, 0.3]
    snaps = []
    for value in values:
        reg.clear()
        reg.inc("c", 2)
        reg.observe("h", value, bounds=(1.0,))
        snaps.append(reg.snapshot())
    forward = MetricsSnapshot.merge(snaps)
    backward = MetricsSnapshot.merge(list(reversed(snaps)))
    assert forward.counters == backward.counters == {"c": 6}
    assert forward.histograms["h"] == backward.histograms["h"]
    assert forward.histograms["h"]["total"] == sum(
        (Fraction(v) for v in values), Fraction(0))


def test_zero_increment_records_nothing():
    reg = obs.MetricsRegistry()
    reg.inc("moved", 2)
    reg.inc("still", 0)
    assert reg.snapshot().counters == {"moved": 2}
    assert "still" not in reg.snapshot().scopes


def test_scoped_filters_by_metric_scope():
    reg = obs.MetricsRegistry()
    reg.inc("sim.c", 1, scope=obs.SCOPE_SIM)
    reg.inc("host.c", 1, scope=obs.SCOPE_HOST)
    snap = reg.snapshot()
    assert set(snap.scoped(obs.SCOPE_SIM).counters) == {"sim.c"}
    assert set(snap.scoped(obs.SCOPE_HOST).counters) == {"host.c"}


# ---------------------------------------------------------------------------
# gating
# ---------------------------------------------------------------------------
def test_disabled_campaign_records_nothing():
    scenario, dataset = _campaign()
    assert dataset.trace is None
    assert dataset.obs_metrics is None
    assert runtime.tracer.spans == []
    assert runtime.metrics.snapshot().counters == {}


def test_enabled_campaign_attaches_trace_and_metrics():
    obs.enable()
    scenario, dataset = _campaign()
    assert len(dataset.trace) == len(dataset.sessions) == 12
    counters = dataset.obs_metrics.counters
    assert counters["campaign.sessions.completed"] == 12
    assert counters["fe.requests"] == 12
    assert counters["be.queries"] == 12
    assert counters["engine.events_processed"] > 0


def test_env_gating(monkeypatch):
    for value, expect in (("", False), ("0", False), ("off", False),
                          ("no", False), ("1", True), ("on", True),
                          ("trace.jsonl", True)):
        monkeypatch.setenv("REPRO_TRACE", value)
        assert (obs.runtime.env_setting() is not None) is expect, value
    monkeypatch.delenv("REPRO_TRACE")
    assert obs.runtime.env_setting() is None


def test_env_trace_path_extraction(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE", "1")
    assert obs.env_trace_path() is None
    monkeypatch.setenv("REPRO_TRACE", "out/campaign.jsonl")
    assert obs.env_trace_path() == "out/campaign.jsonl"
    monkeypatch.delenv("REPRO_TRACE")
    assert obs.env_trace_path() is None


def test_replay_stats_surface_through_registry():
    obs.enable()
    scenario, dataset = _campaign(replay_cache=True)
    assert dataset.replay is not None
    counters = dataset.obs_metrics.counters
    recorded = sum(counters.get(name, 0) for name in
                   ("replay.hits", "replay.misses"))
    recorded += sum(value for name, value in counters.items()
                    if name.startswith("replay.bypass."))
    assert recorded == len(dataset.sessions)
    assert counters.get("replay.hits", 0) == dataset.replay.hits


# ---------------------------------------------------------------------------
# span tree correctness for a full Dataset-A campaign
# ---------------------------------------------------------------------------
def test_session_span_landmarks_match_extracted_timelines():
    obs.enable()
    scenario, dataset = _campaign()
    calibration = calibrate_frontends_used(scenario, Scenario.GOOGLE,
                                           dataset.sessions)
    metrics = extract_all_calibrated(dataset.sessions, calibration)
    assert len(metrics) == len(dataset.sessions)
    obs.annotate_boundaries(metrics)

    spans = {span["attrs"]["query_id"]: span for span in dataset.trace}
    assert len(spans) == len(dataset.sessions)
    by_query = runtime.tracer.session_spans()
    for qm in metrics:
        session = qm.session
        timeline = qm.timeline
        # dataset.trace snapshots pre-annotation; the live tracer span
        # carries the full timeline.
        span = by_query[session.query_id]
        assert span.start == session.started_at
        assert span.end == session.completed_at
        events = dict((name, time) for time, name in span.events)
        assert events["tb"] == timeline.tb
        assert events["t1"] == timeline.t1
        assert events["t2"] == timeline.t2
        assert events["t3"] == timeline.t3
        assert events["t4"] == timeline.t4
        assert events["t5"] == timeline.t5
        assert events["te"] == timeline.te

        children = {child.name: child for child in span.children}
        assert children["phase.connect"].start == timeline.tb
        assert children["phase.connect"].end == timeline.t1
        assert children["phase.request"].end == timeline.t2
        assert children["phase.response"].start == timeline.t3
        assert children["phase.response"].end == timeline.te
        assert children["phase.static"].end == timeline.t4
        assert children["phase.dynamic"].start == timeline.t5

        # FE/BE ground-truth children match the service logs.
        deployment = scenario.service(session.service)
        frontend = deployment.frontend_by_name(session.fe_name)
        fetch = frontend.fetch_log[session.query_id]
        assert children["fe.fetch"].start == fetch.forwarded_at
        assert children["fe.fetch"].end == fetch.completed_at
        backend = deployment.backend_for_frontend(frontend)
        query = backend.query_log[session.query_id]
        assert children["be.query"].start == query.arrival_time
        assert children["be.query"].end == query.completed_time
        assert children["be.query"].attrs["tproc"] == query.tproc


def test_boundary_free_landmarks_match_extract_timeline():
    obs.enable()
    scenario, dataset = _campaign()
    calibration = calibrate_frontends_used(scenario, Scenario.GOOGLE,
                                           dataset.sessions)
    for qm in extract_all_calibrated(dataset.sessions, calibration):
        marks = landmarks(qm.session)
        assert marks["tb"] == qm.timeline.tb
        assert marks["t1"] == qm.timeline.t1
        assert marks["t2"] == qm.timeline.t2
        assert marks["t3"] == qm.timeline.t3
        assert marks["te"] == qm.timeline.te
        assert marks["rtt"] == qm.timeline.rtt


def test_spans_are_sim_time_only():
    obs.enable()
    scenario, dataset = _campaign()
    horizon = scenario.sim.now

    def check(span):
        assert 0.0 <= span["start"] <= span["end"] <= horizon
        for time, _ in span["events"]:
            assert 0.0 <= time <= horizon
        for child in span["children"]:
            check(child)

    for span in dataset.trace:
        check(span)
