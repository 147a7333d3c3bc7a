"""Tests for the tiered campaign executor (``repro.sim.analytic``).

The load-bearing property: the packet simulator stays the referee.
The analytic tier may serve the bulk of a campaign from the closed-form
session model, but every seeded validation sample must agree with the
packet engine to within the gate tolerance, tier decisions must be
bit-identical between sharded and serial runs, and a stratum whose
prediction diverges must be demoted back to packet-level simulation.
"""

import pytest

from repro.content.keywords import Keyword, KeywordCatalog
from repro.measure import driver as driver_module
from repro.measure.driver import run_dataset_a, run_dataset_b
from repro.parallel import run_dataset_a_sharded
from repro.sim.analytic import (
    DEFAULT_TOLERANCE,
    DivergenceGate,
    TierStats,
    tier_mode,
)
from repro.sim.randomness import derive_seed
from repro.tcp.config import TcpConfig
from repro.testbed.scenario import Scenario, ScenarioConfig

#: Deterministic keyed services — the only mode where the analytic
#: tier admits sessions (mirrors the replay cache's requirements).
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


def run_a(tier, config=DET_CONFIG, repeats=12, interval=3.0,
          replay_cache=None):
    scenario = Scenario(config)
    dataset = run_dataset_a(scenario, [KEYWORD], repeats=repeats,
                            interval=interval,
                            services=[Scenario.GOOGLE], tier=tier,
                            replay_cache=replay_cache)
    return scenario, dataset


# ---------------------------------------------------------------------------
# divergence gate unit behavior
# ---------------------------------------------------------------------------
def test_gate_tolerance_boundary_exactly_met_passes():
    gate = DivergenceGate(seed=3)
    key = ("google", "fe", "vp")
    # Exactly at tolerance: not a divergence, no demotion.
    assert gate.observe(key, {"te": DEFAULT_TOLERANCE}) == (False, False)
    assert not gate.demoted(key)
    # Strictly beyond: diverged and demoted, exactly once.
    beyond = DEFAULT_TOLERANCE * (1.0 + 1e-9)
    assert gate.observe(key, {"t3": beyond}) == (True, True)
    assert gate.demoted(key)
    # Already-demoted strata report divergence but never re-demote.
    assert gate.observe(key, {"t3": beyond}) == (True, False)


def test_gate_worst_landmark_decides():
    gate = DivergenceGate(seed=3, tolerance=1e-6)
    key = ("google", "fe", "vp")
    # All landmarks inside tolerance: passes.
    assert gate.observe(key, {"tb": 1e-9, "te": 1e-6}) == (False, False)
    # One landmark beyond suffices, regardless of the others.
    assert gate.observe(key, {"tb": 0.0, "t4": 2e-6}) == (True, True)


def test_gate_first_submission_always_validates():
    gate = DivergenceGate(seed=11, validate_every=4)
    assert gate.decide(("g", "fe-a", "vp-a")) == "validate"
    assert gate.decide(("g", "fe-b", "vp-b")) == "validate"


def test_gate_cadence_is_seeded_per_stratum():
    seed, every = 11, 4
    key = ("google", "fe-chicago", "vp-0")
    # Intentionally the gate's own namespace: the test re-derives the
    # seeded cadence phase to predict decide()'s schedule exactly.
    phase = derive_seed(seed, "tier/%s/%s/%s" % key) % every  # simlint: ignore[RNG002]
    gate = DivergenceGate(seed=seed, validate_every=every)
    decisions = [gate.decide(key) for _ in range(20)]
    for index, decision in enumerate(decisions):
        admitted = index + 1
        expected = "validate" if (admitted == 1
                                  or admitted % every == phase) \
            else "analytic"
        assert decision == expected


def test_gate_demotion_routes_all_later_submissions_to_packet():
    gate = DivergenceGate(seed=3, tolerance=0.0, validate_every=2)
    key = ("g", "fe", "vp")
    assert gate.decide(key) == "validate"
    gate.observe(key, {"te": 1e-12})
    assert gate.demoted(key)
    assert all(gate.decide(key) == "demoted" for _ in range(5))


def test_gate_validate_every_none_is_pure_analytic():
    gate = DivergenceGate(seed=3, validate_every=None)
    key = ("g", "fe", "vp")
    assert all(gate.decide(key) == "analytic" for _ in range(20))


def test_gate_rejects_bad_parameters():
    with pytest.raises(ValueError):
        DivergenceGate(seed=3, tolerance=-1e-9)
    with pytest.raises(ValueError):
        DivergenceGate(seed=3, validate_every=0)


# ---------------------------------------------------------------------------
# tier policy resolution
# ---------------------------------------------------------------------------
def test_tier_mode_explicit_beats_env(monkeypatch):
    monkeypatch.setenv("REPRO_TIER", "analytic")
    assert tier_mode("packet") == "packet"
    assert tier_mode() == "analytic"


def test_tier_mode_defaults_to_packet(monkeypatch):
    monkeypatch.delenv("REPRO_TIER", raising=False)
    assert tier_mode() == "packet"
    monkeypatch.setenv("REPRO_TIER", "")
    assert tier_mode() == "packet"


def test_tier_mode_normalizes_and_rejects(monkeypatch):
    monkeypatch.delenv("REPRO_TIER", raising=False)
    assert tier_mode("  AUTO ") == "auto"
    with pytest.raises(ValueError):
        tier_mode("fluid")
    monkeypatch.setenv("REPRO_TIER", "bogus")
    with pytest.raises(ValueError):
        tier_mode()


# ---------------------------------------------------------------------------
# campaign-level agreement: analytic vs packet ground truth
# ---------------------------------------------------------------------------
def test_analytic_campaign_matches_packet_within_tolerance():
    _, packet = run_a("packet")
    _, analytic = run_a("analytic")

    assert analytic.tier is not None and analytic.tier.analytic > 0
    assert analytic.tier.validations == 0  # pure analytic: no referee
    assert len(packet.sessions) == len(analytic.sessions) > 0
    for ours, theirs in zip(packet.sessions, analytic.sessions):
        # Identity, admission, and draw-derived observables are exact.
        assert ours.query_id == theirs.query_id
        assert ours.service == theirs.service
        assert ours.vp_name == theirs.vp_name
        assert ours.fe_name == theirs.fe_name
        assert ours.local_port == theirs.local_port
        assert ours.started_at == theirs.started_at
        assert ours.failed is None and theirs.failed is None
        assert ours.response_size == theirs.response_size
        assert len(ours.events) == len(theirs.events)
        # Modeled completion time agrees to within the gate tolerance.
        assert abs(ours.completed_at - theirs.completed_at) \
            <= DEFAULT_TOLERANCE


def test_analytic_campaign_server_logs_match_packet():
    scenario_p, _ = run_a("packet")
    scenario_a, _ = run_a("analytic")
    packet = scenario_p.service(Scenario.GOOGLE)
    analytic = scenario_a.service(Scenario.GOOGLE)

    p_fetches = packet.merged_fetch_log()
    a_fetches = analytic.merged_fetch_log()
    assert set(p_fetches) == set(a_fetches) and p_fetches
    for key, ours in p_fetches.items():
        theirs = a_fetches[key]
        assert ours.query_id == theirs.query_id
        assert ours.response_size == theirs.response_size
        assert abs(ours.forwarded_at - theirs.forwarded_at) \
            <= DEFAULT_TOLERANCE
        assert abs(ours.completed_at - theirs.completed_at) \
            <= DEFAULT_TOLERANCE

    p_queries = packet.merged_query_log()
    a_queries = analytic.merged_query_log()
    assert set(p_queries) == set(a_queries) and p_queries
    for key, ours in p_queries.items():
        theirs = a_queries[key]
        assert ours.tproc == theirs.tproc
        assert ours.response_size == theirs.response_size
        assert abs(ours.arrival_time - theirs.arrival_time) \
            <= DEFAULT_TOLERANCE


# ---------------------------------------------------------------------------
# replication footprint: fast paths leave the packet path's server state
# ---------------------------------------------------------------------------
def server_footprint(scenario, obs_metrics):
    """Every server-side counter and record a session leaves, per FE
    and per BE, plus the FE/BE obs counters with their scopes.

    ``SessionExecutor.materialize`` replicates these without driving
    the servers; a missing or doubled replication shows up here even
    when the fetch and query logs (keyed by query id) still match.
    """
    deployment = scenario.service(Scenario.GOOGLE)
    frontends = {
        fe.node.name: (fe.requests_served, fe.peak_concurrency,
                       fe.server.requests_served,
                       fe.server.connections_accepted,
                       tuple(client.requests_completed
                             for client in fe._pool),
                       sorted(fe.static_hit_log))
        for fe in deployment.frontends}
    backends = {
        be.node.name: (be.queries_served, be.server.requests_served,
                       be.server.connections_accepted)
        for be in deployment.backends}
    metrics = {name: (value, obs_metrics.scopes.get(name))
               for name, value in obs_metrics.counters.items()
               if name.startswith(("fe.", "be."))}
    return (frontends, backends, sorted(deployment.merged_fetch_log()),
            sorted(deployment.merged_query_log()), metrics)


def _footprint_run(tier, replay_cache, repeats):
    from repro import obs

    obs.enable()
    try:
        obs.reset()
        scenario, dataset = run_a(tier, repeats=repeats,
                                  replay_cache=replay_cache)
    finally:
        obs.disable()
        obs.reset()
    return dataset, server_footprint(scenario, dataset.obs_metrics)


@pytest.mark.parametrize("repeats", [12, 30])
@pytest.mark.parametrize("tier,replay_cache", [
    ("packet", True), ("auto", None), ("analytic", None)])
def test_fast_paths_leave_the_packet_footprint(tier, replay_cache,
                                               repeats):
    _, reference = _footprint_run("packet", False, repeats)
    dataset, footprint = _footprint_run(tier, replay_cache, repeats)

    served = (dataset.replay.hits if tier == "packet"
              else dataset.tier.analytic)
    assert served > 0, "no session took the fast path"
    assert footprint == reference


@pytest.mark.xfail(strict=True, reason=(
    "open defect: an analytic session never occupies its FE or the FE's "
    "BE pool connection, and the analytic source has no 'window' "
    "bypass like SessionReplayManager.route's, so the next packet "
    "session on that FE sees other state than in the packet run "
    "(ROADMAP item 4)"))
def test_analytic_tier_isolates_sessions_like_the_packet_run():
    keywords = KeywordCatalog(97).figure3_set()[:1]
    config = ScenarioConfig(seed=97, vantage_count=4,
                            keyed_service_draws=True,
                            deterministic_services=True)

    def campaign(tier, replay_cache):
        scenario = Scenario(config)
        dataset = run_dataset_a(scenario, keywords, repeats=8,
                                interval=0.5, services=[Scenario.BING],
                                tier=tier, replay_cache=replay_cache)
        pools = {fe.node.name: [c.requests_completed for c in fe._pool]
                 for fe in scenario.service(Scenario.BING).frontends}
        return dataset.sessions, pools

    def times(session):
        return [session.started_at, session.completed_at] + [
            event.time for event in session.events]

    packet, packet_pools = campaign("packet", False)
    analytic, analytic_pools = campaign("analytic", None)
    assert [s.query_id for s in analytic] == [s.query_id for s in packet]
    for ours, theirs in zip(analytic, packet):
        assert len(ours.events) == len(theirs.events)
        # Today q-planetlab-003-singapore-000002 is 2 ms off.
        assert max(abs(a - b) for a, b in zip(times(ours), times(theirs))) \
            <= DEFAULT_TOLERANCE, ours.query_id
    assert analytic_pools == packet_pools


def test_auto_tier_validations_never_diverge():
    _, dataset = run_a("auto", repeats=20)
    stats = dataset.tier
    assert stats is not None
    assert stats.analytic > 0
    assert stats.validations > 0
    assert stats.divergences == 0
    assert stats.demotions == 0
    assert stats.submissions == len(dataset.sessions)
    assert all(s.complete for s in dataset.sessions)


def test_dataset_b_auto_tier_runs_clean():
    scenario = Scenario(DET_CONFIG)
    frontend = scenario.service(Scenario.GOOGLE).frontends[0]
    dataset = run_dataset_b(scenario, Scenario.GOOGLE, frontend,
                            KEYWORD, repeats=12, interval=8.0,
                            tier="auto")
    stats = dataset.tier
    assert stats is not None
    assert stats.analytic > 0
    assert stats.divergences == 0 and stats.demotions == 0
    assert all(s.complete for s in dataset.sessions)


def test_packet_tier_records_no_tier_stats():
    _, dataset = run_a("packet")
    assert dataset.tier is None


# ---------------------------------------------------------------------------
# demotion: a diverging stratum falls back to packet simulation
# ---------------------------------------------------------------------------
def test_divergence_demotes_stratum_mid_campaign(monkeypatch):
    # Force every validation comparison to report a divergence far
    # beyond tolerance: each stratum's first (always-validated)
    # admissible session must demote it, and every later submission in
    # the stratum must bypass as "gate-demoted" — packet-simulated, so
    # the campaign's observables stay bit-identical to a pure packet
    # run.
    monkeypatch.setattr(
        "repro.sim.analytic.manager.landmark_divergences",
        lambda session, prediction, tcp_host: {"te": 1.0})
    _, packet = run_a("packet")
    _, demoted = run_a("auto")

    stats = demoted.tier
    assert stats.analytic == 0
    assert stats.validations > 0
    assert stats.divergences >= stats.demotions >= 1
    assert stats.bypasses.get("gate-demoted", 0) > 0
    assert ([session_fingerprint(s) for s in packet.sessions]
            == [session_fingerprint(s) for s in demoted.sessions])


def test_demoted_strata_get_replay_hits(monkeypatch):
    # Every stratum demotes after its first validation; the replay
    # cache then serves the demoted sessions on the packet tier, and
    # the campaign still equals a plain packet run session for session.
    monkeypatch.setattr(
        "repro.sim.analytic.manager.landmark_divergences",
        lambda session, prediction, tcp_host: {"te": 1.0})
    _, packet = run_a("packet", repeats=20, replay_cache=False)
    _, demoted = run_a("auto", repeats=20, replay_cache=True)

    tier, replay = demoted.tier, demoted.replay
    assert tier.demotions >= 1 and tier.analytic == 0
    assert tier.bypasses.get("gate-demoted", 0) > 0
    assert replay is not None and replay.hits > 0
    # The recorded source sees exactly the packet-tier sessions.
    assert replay.hits + replay.misses + replay.bypassed == tier.simulated
    assert ([session_fingerprint(s) for s in packet.sessions]
            == [session_fingerprint(s) for s in demoted.sessions])


def test_auto_tier_without_replay_cache_serves_the_same_sessions():
    _, cached = run_a("auto", repeats=20, replay_cache=True)
    _, uncached = run_a("auto", repeats=20, replay_cache=False)

    assert uncached.replay is None
    assert cached.replay is not None and cached.replay.submissions \
        == cached.tier.simulated
    # Replay hits never change a tier decision.
    assert uncached.tier == cached.tier
    assert ([session_fingerprint(s) for s in cached.sessions]
            == [session_fingerprint(s) for s in uncached.sessions])


# ---------------------------------------------------------------------------
# determinism: sharded tier decisions equal serial ones
# ---------------------------------------------------------------------------
def test_sharded_auto_tier_bit_identical_to_serial():
    config = ScenarioConfig(seed=7, vantage_count=6,
                            keyed_service_draws=True,
                            deterministic_services=True)
    serial = run_dataset_a(Scenario(config), [KEYWORD], repeats=10,
                           interval=3.0, services=[Scenario.GOOGLE],
                           tier="auto")
    sharded = run_dataset_a_sharded(Scenario(config), [KEYWORD],
                                    repeats=10, interval=3.0,
                                    services=[Scenario.GOOGLE],
                                    shards=2, processes=2, tier="auto")

    assert serial.tier is not None and sharded.tier is not None
    # Identical tier decisions, not merely identical outcomes.
    assert serial.tier == sharded.tier
    assert serial.tier.analytic > 0
    assert serial.tier.divergences == 0
    assert ([session_fingerprint(s) for s in serial.sessions]
            == [session_fingerprint(s) for s in sharded.sessions])


def test_sharded_auto_tier_invariant_across_shard_counts():
    config = ScenarioConfig(seed=7, vantage_count=6,
                            keyed_service_draws=True,
                            deterministic_services=True)

    def run(shards, processes):
        return run_dataset_a_sharded(
            Scenario(config), [KEYWORD], repeats=6, interval=3.0,
            services=[Scenario.GOOGLE], shards=shards,
            processes=processes, tier="auto")

    two = run(2, 2)
    three = run(3, 1)
    assert two.tier == three.tier
    assert ([session_fingerprint(s) for s in two.sessions]
            == [session_fingerprint(s) for s in three.sessions])


# ---------------------------------------------------------------------------
# tier stats merge
# ---------------------------------------------------------------------------
def test_tier_stats_sum_merges_counters():
    a = TierStats(analytic=5, simulated=2, validations=1,
                  divergences=1, demotions=1, bypasses={"fe-busy": 1})
    b = TierStats(analytic=3, simulated=4, validations=2,
                  bypasses={"fe-busy": 2, "time-origin": 1})
    total = sum([a, b])
    assert total == TierStats(analytic=8, simulated=6, validations=3,
                              divergences=1, demotions=1,
                              bypasses={"fe-busy": 3, "time-origin": 1})
    assert total.bypassed == 4
    assert total.submissions == 14


# ---------------------------------------------------------------------------
# observability: tier counters and divergence histograms
# ---------------------------------------------------------------------------
def test_auto_tier_exports_obs_counters_and_histograms():
    from repro import obs

    obs.enable()
    try:
        obs.reset()
        _, dataset = run_a("auto", repeats=20)
    finally:
        obs.disable()
        obs.reset()

    counters = dataset.obs_metrics.counters
    stats = dataset.tier
    assert counters["tier.analytic_sessions"] == stats.analytic
    assert counters["tier.simulated_sessions"] == stats.simulated
    assert counters["tier.validations"] == stats.validations
    assert "tier.divergences" not in counters  # none occurred
    assert counters["tier.bypass.time-origin"] \
        == stats.bypasses["time-origin"]
    # One divergence histogram per landmark, fed once per validation.
    for name in ("tb", "t1", "t2", "t3", "t4", "t5", "te"):
        hist = dataset.obs_metrics.histograms["tier.divergence.%s" % name]
        assert hist["count"] == stats.validations


# ---------------------------------------------------------------------------
# widened replay admission: cubic profiles (satellite of the tier PR)
# ---------------------------------------------------------------------------
CUBIC_CONFIG = ScenarioConfig(seed=7, vantage_count=3,
                              keyed_service_draws=True,
                              deterministic_services=True,
                              client_tcp=TcpConfig(congestion="cubic"))


def _replay_run(config):
    scenario = Scenario(config)
    dataset = run_dataset_a(scenario, [KEYWORD], repeats=12,
                            interval=3.0, services=[Scenario.GOOGLE],
                            replay_cache=True)
    return dataset


def test_replay_cubic_admission():
    # Cubic with the default (effectively infinite) initial ssthresh
    # never leaves slow start on an admitted loss-free path, where its
    # byte-counting ramp is identical to Reno's: the replay cache must
    # admit it, and the sessions must be bit-equal to the Reno run's.
    reno = _replay_run(DET_CONFIG)
    cubic = _replay_run(CUBIC_CONFIG)

    assert cubic.replay is not None and cubic.replay.hits > 0
    assert "congestion-model" not in cubic.replay.bypasses
    assert ([session_fingerprint(s) for s in reno.sessions]
            == [session_fingerprint(s) for s in cubic.sessions])


def test_replay_cubic_finite_ssthresh_still_bypasses():
    # A cubic profile that can actually exit slow start is governed by
    # wall-clock time since loss — not time-shiftable, so every
    # submission must bypass the cache.
    config = ScenarioConfig(
        seed=7, vantage_count=3, keyed_service_draws=True,
        deterministic_services=True,
        client_tcp=TcpConfig(congestion="cubic",
                             initial_ssthresh_bytes=64_000))
    dataset = _replay_run(config)
    assert dataset.replay.hits == 0 and dataset.replay.misses == 0
    assert dataset.replay.bypasses == {
        "congestion-model": len(dataset.sessions)}


def test_analytic_tier_admits_cubic_infinite_ssthresh():
    _, dataset = run_a("analytic", config=CUBIC_CONFIG)
    assert dataset.tier is not None and dataset.tier.analytic > 0
    assert "congestion-model" not in dataset.tier.bypasses
    assert all(s.complete for s in dataset.sessions)
