"""Integration tests for finite FE caches in the measurement pipeline.

Three load-bearing properties:

* **ground truth** — with a finite static cache every query gets a
  unique id and a per-query hit/miss verdict in the FE's log;
* **invisibility of the default** — the degenerate infinite hierarchy
  changes nothing: replay-cache admission, campaign fingerprints, and
  streaming results are exactly what they were before the subsystem
  existed (the figure-level goldens are checked in CI);
* **sharding discipline** — Dataset-A/streaming sharding stays
  bit-identical to serial under a finite per-FE cache.

Plus the satellite: ``core.cache_detect`` against known hit rates.
"""

import dataclasses

import pytest

from repro.cache import CacheHierarchySpec, CacheSpec, CacheTier
from repro.content.keywords import Keyword
from repro.core.cache_detect import detect_result_caching
from repro.experiments import ExperimentScale, run_cache_lab
from repro.measure.driver import run_dataset_a, run_single_queries
from repro.measure.streaming import run_streaming_campaign
from repro.parallel import run_dataset_a_sharded, run_streaming_sharded
from repro.sim.replay.admission import path_bypass_reason
from repro.testbed.scenario import Scenario, ScenarioConfig
from repro.workload import OpenLoopWorkload, WorkloadSpec

FINITE = CacheHierarchySpec(
    static=CacheSpec("lru", capacity_bytes=3 * 4300))

#: Keyed service draws: required for sharding and replay admission.
DET_CONFIG = ScenarioConfig(seed=7, vantage_count=3,
                            keyed_service_draws=True,
                            deterministic_services=True)

KEYWORD = Keyword(text="alpha query", popularity=0.6, complexity=0.3)


def _keywords(count):
    return [Keyword(text="probe keyword %02d" % index,
                    popularity=0.5, complexity=0.4)
            for index in range(count)]


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


# ---------------------------------------------------------------------------
# ground-truth hit/miss logging
# ---------------------------------------------------------------------------
def test_repeated_vp_gets_unique_query_ids():
    scenario = Scenario(ScenarioConfig(seed=5, vantage_count=2))
    service = scenario.service(Scenario.GOOGLE)
    frontend = service.frontends[0]
    vp = scenario.vantage_points[0]
    sessions = run_single_queries(
        scenario, Scenario.GOOGLE, frontend,
        [(vp, kw) for kw in _keywords(5)], spacing=0.5)
    assert len(sessions) == 5
    assert len({s.query_id for s in sessions}) == 5


def test_finite_cache_logs_miss_then_hits():
    scenario = Scenario(ScenarioConfig(seed=5, vantage_count=2,
                                       fe_cache=FINITE))
    service = scenario.service(Scenario.GOOGLE)
    frontend = service.frontends[0]
    assert frontend.static_cache.finite
    vp = scenario.vantage_points[0]
    keyword = _keywords(1)[0]
    sessions = run_single_queries(
        scenario, Scenario.GOOGLE, frontend,
        [(vp, keyword)] * 4, spacing=2.0)
    levels = [frontend.static_hit_log[s.query_id] for s in sessions]
    # Cold cache: first request goes to origin, repeats hit the FE.
    assert levels == [CacheTier.ORIGIN, 0, 0, 0]
    assert frontend.static_cache.origin_fetches == 1
    stats = frontend.static_cache.levels[0].stats()
    assert stats["hits"] == 3 and stats["misses"] == 1


def test_default_infinite_cache_logs_nothing():
    scenario = Scenario(ScenarioConfig(seed=5, vantage_count=2))
    frontend = scenario.service(Scenario.GOOGLE).frontends[0]
    vp = scenario.vantage_points[0]
    run_single_queries(scenario, Scenario.GOOGLE, frontend,
                       [(vp, KEYWORD)] * 2, spacing=2.0)
    assert frontend.static_hit_log == {}
    assert not frontend.static_cache.finite


# ---------------------------------------------------------------------------
# replay-cache admission
# ---------------------------------------------------------------------------
def test_default_cache_still_admits_replay():
    scenario = Scenario(DET_CONFIG)
    frontend = scenario.service(Scenario.GOOGLE).frontends[0]
    vp = scenario.vantage_points[0]
    scenario.link_client_to_frontend(
        vp, frontend, scenario.service(Scenario.GOOGLE))
    assert path_bypass_reason(scenario, Scenario.GOOGLE, frontend,
                              vp.name) is None


@pytest.mark.parametrize("fe_cache", [
    FINITE,
    CacheHierarchySpec(result=CacheSpec("lru", capacity_bytes=4096)),
])
def test_finite_cache_bypasses_replay(fe_cache):
    scenario = Scenario(ScenarioConfig(seed=7, vantage_count=3,
                                       keyed_service_draws=True,
                                       deterministic_services=True,
                                       fe_cache=fe_cache))
    frontend = scenario.service(Scenario.GOOGLE).frontends[0]
    vp = scenario.vantage_points[0]
    scenario.link_client_to_frontend(
        vp, frontend, scenario.service(Scenario.GOOGLE))
    assert path_bypass_reason(scenario, Scenario.GOOGLE, frontend,
                              vp.name) == "finite-content-cache"


def test_replay_cache_on_equals_off_under_finite_cache():
    config = ScenarioConfig(seed=7, vantage_count=3,
                            keyed_service_draws=True,
                            deterministic_services=True,
                            fe_cache=FINITE)

    def run(replay_cache):
        scenario = Scenario(config)
        return run_dataset_a(scenario, [KEYWORD], repeats=4,
                             interval=3.0, services=[Scenario.GOOGLE],
                             replay_cache=replay_cache)

    on, off = run(True), run(False)
    assert on.replay.bypasses.get("finite-content-cache", 0) \
        == len(on.sessions) > 0
    assert ([session_fingerprint(s) for s in on.sessions]
            == [session_fingerprint(s) for s in off.sessions])


# ---------------------------------------------------------------------------
# sharding discipline
# ---------------------------------------------------------------------------
def test_dataset_a_sharded_bit_identical_with_finite_cache():
    config = ScenarioConfig(seed=3, vantage_count=8,
                            keyed_service_draws=True,
                            fe_cache=FINITE)
    serial = run_dataset_a(Scenario(config), _keywords(2),
                           repeats=2, interval=1.0,
                           services=[Scenario.GOOGLE])
    sharded = run_dataset_a_sharded(Scenario(config), _keywords(2),
                                    repeats=2, interval=1.0,
                                    services=[Scenario.GOOGLE],
                                    shards=3, processes=2)
    assert len(serial.sessions) == len(sharded.sessions) > 0
    for ours, theirs in zip(serial.sessions, sharded.sessions):
        assert session_fingerprint(ours) == session_fingerprint(theirs)


# ---------------------------------------------------------------------------
# streaming campaigns
# ---------------------------------------------------------------------------
STREAM_SPEC = WorkloadSpec(seed=5, users=120, duration=200.0,
                           session_rate=0.5, keyword_count=32,
                           services=("google-like",))


def _stream(config):
    scenario = Scenario(config)
    workload = OpenLoopWorkload(
        STREAM_SPEC, [vp.name for vp in scenario.vantage_points])
    return run_streaming_campaign(scenario, workload)


def test_streaming_reports_cache_section_only_when_finite():
    config = ScenarioConfig(seed=5, vantage_count=6,
                            keyed_service_draws=True,
                            deterministic_services=True)
    default = _stream(config)
    assert default.content_cache is None
    assert default.content_hit_rate() is None

    finite = _stream(dataclasses.replace(config, fe_cache=FINITE))
    assert finite.content_cache is not None
    assert finite.content_cache["fe_misses"] > 0
    hit_rate = finite.content_hit_rate()
    assert hit_rate is not None and 0.0 <= hit_rate <= 1.0
    # The cache section is part of the fingerprint when present.
    assert default.fingerprint() != finite.fingerprint()


def test_streaming_sharded_bit_identical_with_finite_cache():
    config = ScenarioConfig(seed=5, vantage_count=6,
                            keyed_service_draws=True,
                            deterministic_services=True,
                            fe_cache=FINITE)
    serial = _stream(config)
    scenario = Scenario(config)
    sharded = run_streaming_sharded(scenario, STREAM_SPEC,
                                    shards=3, processes=2)
    assert serial.fingerprint() == sharded.fingerprint()
    assert serial.content_cache == sharded.content_cache


# ---------------------------------------------------------------------------
# cache_detect vs known hit rates
# ---------------------------------------------------------------------------
def _tdynamic_mixture(hits, misses):
    """Synthetic Tdynamic samples: cache hits skip the BE processing
    step (~60% of the response time) but still pay the transfer."""
    hit_s = [0.080 + 0.0015 * i for i in range(hits)]
    miss_s = [0.200 + 0.0015 * i for i in range(misses)]
    return hit_s + miss_s


DISTINCT = _tdynamic_mixture(0, 24)  # distinct keywords never hit


def test_cache_detect_at_zero_hit_rate():
    detection = detect_result_caching(_tdynamic_mixture(0, 24), DISTINCT)
    assert not detection.caching_detected
    assert 0.9 <= detection.median_ratio <= 1.1


def test_cache_detect_at_full_hit_rate():
    detection = detect_result_caching(_tdynamic_mixture(24, 0), DISTINCT)
    assert detection.caching_detected
    assert detection.median_ratio < 0.5


def test_cache_detect_at_half_hit_rate_sits_on_the_fence():
    # With an even hit/miss split the same-keyword median lands halfway
    # between the two modes: the KS test sees the distribution shift,
    # but the conservative median-ratio threshold (0.6) declines to
    # call it caching.
    detection = detect_result_caching(_tdynamic_mixture(12, 12),
                                      DISTINCT)
    assert 0.6 <= detection.median_ratio <= 0.8
    assert not detection.caching_detected


def test_cache_detect_at_majority_hit_rate():
    # One sample past the midpoint the median collapses onto the hit
    # mode and detection locks in.
    detection = detect_result_caching(_tdynamic_mixture(13, 11),
                                      DISTINCT)
    assert detection.caching_detected
    assert detection.median_ratio < 0.55


# ---------------------------------------------------------------------------
# the cache-lab experiment end to end
# ---------------------------------------------------------------------------
def test_cache_lab_acceptance_properties():
    result = run_cache_lab(ExperimentScale.tiny(seed=1))
    assert result.points and result.validations
    # Ground-truth hit rates are reported at more than one capacity and
    # grow with capacity.
    by_capacity = sorted(result.points_by(policy="lru", alpha=0.9,
                                          tier_depth=1),
                         key=lambda p: p.capacity_objects)
    assert len(by_capacity) >= 2
    rates = [p.ground_truth_hit_rate for p in by_capacity]
    assert all(0.0 < rate < 1.0 for rate in rates)
    assert rates == sorted(rates)
    # Skew helps: the measured hit rate rises with Zipf alpha.
    assert result.hit_rate_monotone_in_alpha
    # The outside-view (Tdelta) classifier tracks the server-side log.
    for point in result.points_by(tier_depth=1):
        assert abs(point.measured_hit_rate
                   - point.ground_truth_hit_rate) <= 0.10, point
    # cache_detect's verdict matches the log ground truth everywhere.
    assert result.all_validations_correct
