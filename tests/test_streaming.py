"""Tests for the bounded-memory streaming campaign runner."""

import dataclasses
import re

import pytest

from repro import obs
from repro.measure.streaming import (
    StreamingCampaignResult,
    StreamingSchedule,
    run_streaming_campaign,
)
from repro.parallel import (
    ShardError,
    fe_sharing_components,
    partition_components,
    run_streaming_sharded,
)
from repro.testbed.scenario import Scenario, ScenarioConfig
from repro.workload import (
    OpenLoopWorkload,
    TraceWorkload,
    WorkloadSpec,
    write_events,
)

CONFIG = ScenarioConfig(seed=5, vantage_count=8,
                        keyed_service_draws=True,
                        deterministic_services=True)
SPEC = WorkloadSpec(seed=5, users=200, duration=300.0,
                    session_rate=0.5, keyword_count=64,
                    services=("google-like",))


def _serial(spec=SPEC, config=CONFIG, **kwargs):
    scenario = Scenario(config)
    workload = OpenLoopWorkload(
        spec, [vp.name for vp in scenario.vantage_points])
    return run_streaming_campaign(scenario, workload, **kwargs)


# ---------------------------------------------------------------------------
# StreamingSchedule
# ---------------------------------------------------------------------------
def test_streaming_schedule_duck_type():
    schedule = StreamingSchedule()
    assert schedule.count_at("fe", 1.0) == 0
    assert schedule.next_after("fe", 0.0) == float("inf")
    for time in (1.0, 2.0, 2.0, 5.0):
        schedule.feed("fe", time)
    assert schedule.count_at("fe", 2.0) == 2
    assert schedule.count_at("fe", 3.0) == 0
    assert schedule.next_after("fe", 2.0) == 5.0
    assert schedule.next_after("fe", 5.0) == float("inf")


def test_streaming_schedule_prune_keeps_answers_exact():
    schedule = StreamingSchedule()
    for index in range(6000):
        schedule.feed("fe", float(index))
    schedule.prune(3000.0)
    # Everything at/after the prune point still answers exactly.
    assert schedule.count_at("fe", 3000.0) == 1
    assert schedule.next_after("fe", 3000.0) == 3001.0


# ---------------------------------------------------------------------------
# serial runner behavior
# ---------------------------------------------------------------------------
def test_streaming_campaign_counts_and_sketches():
    result = _serial()
    assert result.events > 0
    assert result.sessions == result.events  # all queries complete
    assert result.failures == 0
    assert result.truncated == 0
    duration = result.sketches["duration/google-like"]
    assert duration.count == result.sessions - result.failures
    assert 0.0 < duration.quantile(0.5) < 5.0
    size = result.sketches["bytes/google-like"]
    assert size.quantile(0.5) > 1000.0


def test_streaming_run_is_deterministic():
    assert _serial().fingerprint() == _serial().fingerprint()


def test_streaming_batch_size_does_not_change_results():
    base = _serial()
    for batch_events in (7, 64, 100_000):
        assert _serial(batch_events=batch_events).fingerprint() \
            == base.fingerprint()


def test_streaming_memory_is_bounded():
    # The runner must not retain folded sessions, captures, or
    # ground-truth log entries between batches.
    scenario = Scenario(CONFIG)
    workload = OpenLoopWorkload(
        SPEC, [vp.name for vp in scenario.vantage_points])
    result = run_streaming_campaign(scenario, workload, batch_events=64)
    assert result.sessions > 100
    service = scenario.service("google-like")
    assert len(service.merged_fetch_log()) == 0
    assert len(service.merged_query_log()) == 0


def test_streaming_lookahead_guard():
    with pytest.raises(RuntimeError, match="lookahead"):
        _serial(lookahead=0.05)
    with pytest.raises(ValueError):
        _serial(lookahead=0.0)
    with pytest.raises(ValueError):
        _serial(batch_events=0)


def test_out_of_order_stream_is_rejected(tmp_path):
    scenario = Scenario(CONFIG)
    spec = dataclasses.replace(SPEC, max_events=120)
    events = list(OpenLoopWorkload(
        spec, [vp.name for vp in scenario.vantage_points]).events())
    assert len(events) == 120
    sorted_path = str(tmp_path / "sorted.jsonl")
    write_events(sorted_path, events)
    events[10], events[60] = events[60], events[10]
    swapped_path = str(tmp_path / "swapped.jsonl")
    write_events(swapped_path, events)

    message = ("event 11 is at t=%r, after an event at t=%r"
               % (events[11].time, events[10].time))
    with pytest.raises(ValueError, match=re.escape(message)):
        run_streaming_campaign(scenario, TraceWorkload(swapped_path))
    assert run_streaming_campaign(
        Scenario(CONFIG), TraceWorkload(sorted_path)).events == 120


def test_streaming_replay_cache_changes_no_results():
    base = _serial(replay_cache=False)
    cached = _serial(replay_cache=True)
    assert cached.replay is not None
    assert cached.replay.hits > 0
    assert cached.hit_rate() > 0.0
    assert cached.fingerprint() == base.fingerprint()


def test_streaming_hit_rate_rises_with_alpha():
    rates = []
    for alpha in (0.6, 1.2):
        spec = WorkloadSpec(seed=5, users=200, duration=300.0,
                            session_rate=0.5, keyword_count=64,
                            alpha=alpha, services=("google-like",))
        rates.append(_serial(spec=spec, replay_cache=True).hit_rate())
    assert rates[0] < rates[1]


# ---------------------------------------------------------------------------
# sharding: bit-identical aggregates at any shard count and tier
# ---------------------------------------------------------------------------
def test_sharded_matches_serial_fingerprint():
    serial = _serial()
    for shards in (2, 3, 5):
        sharded = run_streaming_sharded(Scenario(CONFIG), SPEC,
                                        shards=shards)
        assert sharded.events == serial.events
        assert sharded.sessions == serial.sessions
        assert sharded.fingerprint() == serial.fingerprint()


@pytest.mark.parametrize("tier", ["packet", "analytic", "auto"])
def test_sharded_matches_serial_across_tiers(tier):
    serial = _serial(tier=tier)
    sharded = run_streaming_sharded(Scenario(CONFIG), SPEC,
                                    shards=3, tier=tier)
    assert sharded.fingerprint() == serial.fingerprint()
    if tier != "packet":
        assert serial.tier is not None
        assert serial.tier.analytic > 0
        assert (sharded.tier.analytic + sharded.tier.simulated
                == serial.tier.analytic + serial.tier.simulated)


@pytest.mark.parametrize("processes", [1, 2])
def test_failing_shard_is_named(processes):
    scenario = Scenario(CONFIG)
    with pytest.raises(ShardError) as caught:
        run_streaming_sharded(scenario, SPEC, shards=2,
                              processes=processes, lookahead=0.05)
    match = re.match(r"shard (\d) of 2 \(first vantage point (\S+)\) "
                     r"failed: RuntimeError: session isolation window",
                     str(caught.value))
    assert match is not None, str(caught.value)
    partition = partition_components(
        fe_sharing_components(scenario, SPEC.services), 2)
    assert match.group(2) == partition[int(match.group(1))][0].name
    assert "lookahead" in str(caught.value.__cause__)


def test_sharding_requires_keyed_draws():
    config = ScenarioConfig(seed=5, vantage_count=4)
    with pytest.raises(ValueError, match="keyed_service_draws"):
        run_streaming_sharded(Scenario(config), SPEC, shards=2)


def test_sharded_observability_merges_to_serial_sim_scope():
    obs.enable()
    try:
        obs.reset()
        serial = _serial()
        serial_records = serial.obs_metrics.scoped(
            obs.SCOPE_SIM).as_records()
        obs.reset()
        sharded = run_streaming_sharded(Scenario(CONFIG), SPEC, shards=3)
        sharded_records = sharded.obs_metrics.scoped(
            obs.SCOPE_SIM).as_records()
        assert serial_records == sharded_records
        assert any(record["name"] == "stream.sessions"
                   for record in serial_records)
        assert sharded.fingerprint() == serial.fingerprint()
    finally:
        obs.disable()
        obs.reset()


# ---------------------------------------------------------------------------
# result merge algebra
# ---------------------------------------------------------------------------
def test_result_merge_is_order_independent():
    parts = [run_streaming_sharded(Scenario(CONFIG), SPEC, shards=1)]
    parts.append(_serial(spec=WorkloadSpec(
        seed=6, users=100, duration=200.0, session_rate=0.4,
        keyword_count=64, services=("google-like",))))
    forward = StreamingCampaignResult.merged(parts)
    backward = StreamingCampaignResult.merged(list(reversed(parts)))
    assert forward.events == backward.events
    assert forward.sessions == backward.sessions
    for name in forward.sketches:
        assert forward.sketches[name] == backward.sketches[name]
