"""Tests for the session-replay cache (``repro.sim.replay``).

The load-bearing property mirrors the sharding layer's: the cache must
be *invisible* in the results.  Every observable — session landmarks,
packet traces, ground-truth fetch/query logs, RNG draw accounting —
must be bit-identical with the cache on, off, and on-inside-shards.
Everything else here (admission bypasses, LRU mechanics, counters)
supports that.
"""

import pytest

from repro.content.keywords import Keyword
from repro.measure.driver import run_dataset_a, run_dataset_b
from repro.parallel import run_dataset_a_sharded
from repro.sim.engine import SchedulingError, Simulator
from repro.sim.randomness import RandomStreams
from repro.sim.replay import ReplayCache, ReplayStats, replay_cache_enabled
from repro.sim.replay import manager as replay_manager
from repro.sim.replay.fingerprint import (
    binade,
    predicted_service_draws,
    window_fits,
)
from repro.testbed.scenario import Scenario, ScenarioConfig

#: Deterministic keyed services: the only mode where timelines repeat,
#: hence where the cache gets hits.  Three VPs, one service, staggered
#: submissions 1 s apart with a 3 s round interval.
DET_CONFIG = ScenarioConfig(seed=7, vantage_count=3,
                            keyed_service_draws=True,
                            deterministic_services=True)

KEYWORD = Keyword(text="alpha query", popularity=0.6, complexity=0.3)


def session_fingerprint(session):
    """Every observable of one session, for exact comparison."""
    return (
        session.query_id, session.service, session.vp_name,
        session.fe_name, session.local_port, session.started_at,
        session.completed_at, session.failed, session.response_size,
        session.path_rtt,
        tuple((e.time, e.direction, e.src, e.dst, e.sport, e.dport,
               e.wire_size, e.payload_len, e.seq, e.ack, e.syn, e.fin,
               e.ack_flag, e.retransmit)
              for e in session.events),
    )


def ground_truth(scenario, service_name):
    """Normalized FE fetch-log and BE query-log contents."""
    deployment = scenario.service(service_name)
    fetches = {key: (rec.query_id, rec.forwarded_at, rec.completed_at,
                     rec.response_size)
               for key, rec in deployment.merged_fetch_log().items()}
    queries = {key: (rec.query_id, rec.keyword_text, rec.arrival_time,
                     rec.tproc, rec.response_size, rec.completed_time)
               for key, rec in deployment.merged_query_log().items()}
    return fetches, queries


def run_a(replay_cache, config=DET_CONFIG, repeats=30, interval=3.0):
    scenario = Scenario(config)
    dataset = run_dataset_a(scenario, [KEYWORD], repeats=repeats,
                            interval=interval,
                            services=[Scenario.GOOGLE],
                            replay_cache=replay_cache)
    return scenario, dataset


def run_b(replay_cache, repeats=20, interval=8.0):
    scenario = Scenario(ScenarioConfig(seed=11, vantage_count=3,
                                       keyed_service_draws=True,
                                       deterministic_services=True))
    frontend = scenario.service(Scenario.GOOGLE).frontends[0]
    dataset = run_dataset_b(scenario, Scenario.GOOGLE, frontend, KEYWORD,
                            repeats=repeats, interval=interval,
                            replay_cache=replay_cache)
    return scenario, dataset


# ---------------------------------------------------------------------------
# equivalence: the cache must not change a single byte
# ---------------------------------------------------------------------------
def test_dataset_a_cache_on_equals_cache_off():
    scenario_off, off = run_a(False)
    scenario_on, on = run_a(True)

    assert on.replay is not None and on.replay.hits > 0
    assert len(off.sessions) == len(on.sessions) > 0
    assert ([session_fingerprint(s) for s in off.sessions]
            == [session_fingerprint(s) for s in on.sessions])
    assert (ground_truth(scenario_off, Scenario.GOOGLE)
            == ground_truth(scenario_on, Scenario.GOOGLE))


def test_dataset_b_cache_on_equals_cache_off():
    scenario_off, off = run_b(False)
    scenario_on, on = run_b(True)

    assert on.replay is not None and on.replay.hits > 0
    assert ([session_fingerprint(s) for s in off.sessions]
            == [session_fingerprint(s) for s in on.sessions])
    assert (ground_truth(scenario_off, Scenario.GOOGLE)
            == ground_truth(scenario_on, Scenario.GOOGLE))


def test_dataset_b_after_calibration_replays():
    # fig5, validation and whatif calibrate first, which advances the
    # clock; the campaign's submission schedule must start from there.
    from repro.experiments.common import calibrate_service

    def run(replay_cache):
        scenario = Scenario(ScenarioConfig(seed=11, vantage_count=6,
                                           keyed_service_draws=True,
                                           deterministic_services=True))
        frontend = scenario.service(Scenario.GOOGLE).frontends[0]
        calibrate_service(scenario, Scenario.GOOGLE, [frontend])
        assert scenario.sim.now > 0.0
        return scenario, run_dataset_b(scenario, Scenario.GOOGLE,
                                       frontend, KEYWORD, repeats=12,
                                       interval=8.0,
                                       replay_cache=replay_cache)

    scenario_off, off = run(False)
    scenario_on, on = run(True)

    assert on.replay.hits > 0
    assert "concurrent-submit" not in on.replay.bypasses
    assert len(on.sessions) == 72
    assert ([session_fingerprint(s) for s in off.sessions]
            == [session_fingerprint(s) for s in on.sessions])
    assert (ground_truth(scenario_off, Scenario.GOOGLE)
            == ground_truth(scenario_on, Scenario.GOOGLE))


def test_dataset_a_sharded_with_cache_equals_serial_without():
    config = ScenarioConfig(seed=7, vantage_count=6,
                            keyed_service_draws=True,
                            deterministic_services=True)
    serial = run_dataset_a(Scenario(config), [KEYWORD], repeats=20,
                           interval=3.0, services=[Scenario.GOOGLE],
                           replay_cache=False)
    sharded = run_dataset_a_sharded(Scenario(config), [KEYWORD],
                                    repeats=20, interval=3.0,
                                    services=[Scenario.GOOGLE],
                                    shards=2, processes=2,
                                    replay_cache=True)

    assert sharded.replay is not None and sharded.replay.hits > 0
    assert ([session_fingerprint(s) for s in serial.sessions]
            == [session_fingerprint(s) for s in sharded.sessions])


# ---------------------------------------------------------------------------
# admission bypasses
# ---------------------------------------------------------------------------
def test_cross_traffic_on_frontend_bypasses_but_stays_identical():
    # Interval far below session duration + guard: every submission
    # lands on a still-busy FE, so nothing may be recorded or replayed.
    def run(cache):
        scenario = Scenario(ScenarioConfig(seed=11, vantage_count=3,
                                           keyed_service_draws=True,
                                           deterministic_services=True))
        frontend = scenario.service(Scenario.GOOGLE).frontends[0]
        return run_dataset_b(scenario, Scenario.GOOGLE, frontend,
                             KEYWORD, repeats=10, interval=0.6,
                             replay_cache=cache)

    off = run(False)
    on = run(True)
    assert on.replay.hits == 0
    assert on.replay.bypasses.get("fe-busy", 0) > 0
    assert ([session_fingerprint(s) for s in off.sessions]
            == [session_fingerprint(s) for s in on.sessions])


def test_lossy_path_bypasses_every_submission():
    lossy = ScenarioConfig(seed=7, vantage_count=3,
                           keyed_service_draws=True,
                           deterministic_services=True,
                           client_loss_rate=0.02)
    _, off = run_a(False, config=lossy, repeats=6)
    _, on = run_a(True, config=lossy, repeats=6)

    assert on.replay.hits == 0 and on.replay.misses == 0
    assert on.replay.bypasses == {"lossy-path": len(on.sessions)}
    assert ([session_fingerprint(s) for s in off.sessions]
            == [session_fingerprint(s) for s in on.sessions])


def test_unkeyed_draws_bypass_whole_campaign():
    unkeyed = ScenarioConfig(seed=7, vantage_count=3,
                             deterministic_services=True)
    _, dataset = run_a(True, config=unkeyed, repeats=3)
    assert dataset.replay.hits == 0 and dataset.replay.misses == 0
    assert dataset.replay.bypasses == {
        "unkeyed-draws": len(dataset.sessions)}


def test_default_stochastic_profiles_bypass_statically():
    # Both stock profiles carry FE-BE jitter, so without
    # deterministic_services every triple is turned away before any
    # fingerprinting happens.
    stochastic = ScenarioConfig(seed=7, vantage_count=3,
                                keyed_service_draws=True)
    scenario = Scenario(stochastic)
    dataset = run_dataset_a(scenario, [KEYWORD], repeats=3, interval=3.0,
                            replay_cache=True)
    assert dataset.replay.hits == 0 and dataset.replay.misses == 0
    assert set(dataset.replay.bypasses) <= {"jittery-path", "lossy-path"}
    assert dataset.replay.bypassed == len(dataset.sessions)


# ---------------------------------------------------------------------------
# counters and accounting
# ---------------------------------------------------------------------------
def test_hit_miss_bypass_counters_partition_submissions():
    _, dataset = run_a(True)
    stats = dataset.replay
    assert stats.submissions == len(dataset.sessions)
    assert stats.hits + stats.misses + stats.bypassed \
        == len(dataset.sessions)
    assert stats.hits > 0
    assert stats.recorded <= stats.misses
    assert stats.validations + stats.validation_failures <= stats.misses
    assert stats.validation_failures == 0


def test_replay_stats_sum_merges_counters():
    left = ReplayStats(hits=2, misses=1, recorded=1,
                       bypasses={"fe-busy": 3})
    right = ReplayStats(hits=1, misses=4, validations=2,
                        bypasses={"fe-busy": 1, "window": 2})
    merged = sum([left, right])
    assert merged.hits == 3 and merged.misses == 5
    assert merged.recorded == 1 and merged.validations == 2
    assert merged.bypasses == {"fe-busy": 4, "window": 2}
    assert merged.submissions == left.submissions + right.submissions


def test_replay_cache_capacity_and_eviction():
    cache = ReplayCache(capacity=2)
    cache.put(("a",), "timeline-a")
    cache.put(("b",), "timeline-b")
    assert cache.get(("a",)) == "timeline-a"  # refreshes LRU order
    cache.put(("c",), "timeline-c")           # evicts ("b",), the LRU
    assert cache.evictions == 1
    assert cache.get(("b",)) is None
    assert cache.get(("a",)) == "timeline-a"
    assert cache.get(("c",)) == "timeline-c"
    assert len(cache) == 2
    with pytest.raises(ValueError):
        ReplayCache(capacity=0)


def test_eviction_pressure_keeps_results_identical(monkeypatch):
    # A one-entry cache thrashes (every VP/binade evicts the previous
    # timeline) but must still never change a byte.
    _, off = run_a(False, repeats=12)
    monkeypatch.setattr(replay_manager, "ReplayCache",
                        lambda: ReplayCache(capacity=1))
    _, dataset = run_a(True, repeats=12)
    assert dataset.replay.evictions > 0
    assert ([session_fingerprint(s) for s in off.sessions]
            == [session_fingerprint(s) for s in dataset.sessions])


def test_replay_cache_enabled_env_values(monkeypatch):
    for value, expected in [("0", False), ("off", False), ("no", False),
                            ("FALSE", False), ("1", True), ("on", True),
                            ("", True), ("flase", ValueError)]:
        monkeypatch.setenv("REPRO_REPLAY_CACHE", value)
        if expected is ValueError:
            with pytest.raises(ValueError,
                               match="REPRO_REPLAY_CACHE.*'flase'"):
                replay_cache_enabled()
            continue
        assert replay_cache_enabled() is expected
    monkeypatch.delenv("REPRO_REPLAY_CACHE")
    assert replay_cache_enabled() is True


def test_env_disable_turns_cache_off(monkeypatch):
    monkeypatch.setenv("REPRO_REPLAY_CACHE", "0")
    _, dataset = run_a(None, repeats=3)
    assert dataset.replay is None
    monkeypatch.setenv("REPRO_REPLAY_CACHE", "1")
    _, dataset = run_a(None, repeats=3)
    assert dataset.replay is not None


# ---------------------------------------------------------------------------
# RNG draw accounting
# ---------------------------------------------------------------------------
def test_randomstreams_counts_registry_draws():
    streams = RandomStreams(3)
    assert streams.draws_consumed == 0
    streams.uniform("a", 0.0, 1.0)
    streams.lognormal("b", 0.0, 1.0)
    streams.keyed("c", "key-1")
    assert streams.draws_consumed == 3
    # Degenerate bernoulli probabilities short-circuit without a draw.
    assert streams.bernoulli("d", 0.0) is False
    assert streams.bernoulli("d", 1.0) is True
    assert streams.draws_consumed == 3
    streams.bernoulli("d", 0.5)
    assert streams.draws_consumed == 4
    # get() hands out a generator without drawing from it.
    streams.get("e")
    assert streams.draws_consumed == 4


def test_prediction_uses_shadow_streams_not_campaign_registry():
    scenario = Scenario(DET_CONFIG)
    frontend = scenario.service(Scenario.GOOGLE).frontends[0]
    before = scenario.streams.draws_consumed
    predicted_service_draws(scenario, Scenario.GOOGLE, frontend,
                            KEYWORD, "q-test-000001")
    assert scenario.streams.draws_consumed == before


def test_cache_hits_consume_same_draws_as_misses():
    # Hits only occur with deterministic services, where the keyed
    # models draw nothing -- so equality here proves a hit burns
    # exactly what its simulated counterpart would have.
    scenario_off, off = run_a(False)
    scenario_on, on = run_a(True)
    assert on.replay.hits > 0
    assert (scenario_on.streams.draws_consumed
            == scenario_off.streams.draws_consumed)

    # With stochastic keyed draws the predicted values enter the cache
    # key, so no key ever repeats: every session simulates and draws.
    stochastic = ScenarioConfig(seed=7, vantage_count=3,
                                keyed_service_draws=True,
                                client_loss_rate=0.0)
    scenario_soff = Scenario(stochastic)
    run_dataset_a(scenario_soff, [KEYWORD], repeats=3, interval=3.0,
                  replay_cache=False)
    scenario_son = Scenario(stochastic)
    run_dataset_a(scenario_son, [KEYWORD], repeats=3, interval=3.0,
                  replay_cache=True)
    assert scenario_soff.streams.draws_consumed > 0
    assert (scenario_son.streams.draws_consumed
            == scenario_soff.streams.draws_consumed)


# ---------------------------------------------------------------------------
# engine: bulk timeline injection
# ---------------------------------------------------------------------------
def test_schedule_timeline_fires_at_shifted_times():
    sim = Simulator()
    seen = []
    sim.schedule_timeline(10.0, [
        (0.5, seen.append, (("late", ))),
        (0.0, seen.append, (("early", ))),
        (0.25, seen.append, (("mid", ))),
    ])
    sim.run()
    assert seen == ["early", "mid", "late"]
    assert sim.now == 10.5


def test_schedule_timeline_rejects_past_events():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    assert handle is not None
    sim.run()
    assert sim.now == 1.0
    with pytest.raises(SchedulingError):
        sim.schedule_timeline(0.0, [(0.5, lambda: None, ())])


def test_schedule_timeline_handles_are_cancellable():
    sim = Simulator()
    seen = []
    handles = sim.schedule_timeline(1.0, [
        (0.0, seen.append, (("kept", ))),
        (0.1, seen.append, (("cancelled", ))),
    ])
    sim.cancel(handles[1])
    sim.run()
    assert seen == ["kept"]


# ---------------------------------------------------------------------------
# fingerprint primitives
# ---------------------------------------------------------------------------
def test_binade_and_window_fit():
    assert binade(64.0) == 7
    assert binade(127.999) == 7
    assert binade(128.0) == 8
    assert window_fits(64.0, 127.9)
    assert not window_fits(64.0, 128.0)   # crosses a binade boundary
    assert not window_fits(0.0, 1.0)      # zero has no positive binade
