"""Micro-benchmarks of the simulation substrate itself.

Unlike the figure benchmarks (one-shot experiment regenerations), these
measure the simulator's raw performance across repeated rounds — useful
for catching performance regressions in the engine, TCP stack, and the
end-to-end query path.
"""

from repro.content.keywords import Keyword
from repro.measure.driver import run_dataset_a
from repro.measure.emulator import QueryEmulator
from repro.net.address import Endpoint
from repro.sim import units
from repro.sim.engine import Simulator
from repro.testbed.scenario import Scenario, ScenarioConfig


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key):
        self.key = key
        self.value = 0


#: Size of the calibration's object pool (about 300 KB) and its rounds.
CALIBRATION_POOL = 4096
CALIBRATION_ROUNDS = 400


def test_bench_host_calibration(benchmark):
    """The host's speed, not the program's: a fixed chunk of
    interpreter-bound work (heap pushes and pops, reads and writes over
    a pool of objects, dict updates, string formatting) that touches no
    repro code, the same work as the e2e speed probe
    (``benchmarks/e2e/profiler.py``).  ``run_microperf.py --check``
    divides every other median by this one, so entries recorded on
    different hosts compare."""
    import heapq

    pool = [_Item(i) for i in range(CALIBRATION_POOL)]

    def chunk():
        heap = []
        table = {}
        x = 12345
        for i in range(CALIBRATION_ROUNDS):
            for j in range(20):
                x = (x * 1103515245 + 12345) & 0x7FFFFFFF
                slot = x % CALIBRATION_POOL
                pool[slot].value += j
                heapq.heappush(heap, ((x % 997 + i) << 32) | slot)
            while len(heap) > 50:
                item = pool[heapq.heappop(heap) & 0xFFFFFFFF]
                key = "k%d" % (item.key & 1023)
                table[key] = table.get(key, 0) + item.value
        return len(table)

    assert benchmark(chunk) > 0


def test_bench_engine_event_throughput(benchmark):
    """Raw event-queue throughput (schedule + dispatch)."""

    def run_events():
        sim = Simulator()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 20_000:
                sim.schedule(0.001, tick)

        sim.schedule(0.0, tick)
        sim.run()
        return count[0]

    executed = benchmark(run_events)
    assert executed == 20_000


def test_bench_tcp_bulk_transfer(benchmark):
    """Simulated 1 MB TCP transfer, wall-clock cost."""
    from repro.net.topology import Topology
    from repro.sim.randomness import RandomStreams
    from repro.tcp.connection import TcpApp
    from repro.tcp.host import TcpHost

    payload = bytes(bytearray(i % 251 for i in range(1_000_000)))

    class Responder(TcpApp):
        def on_data(self, conn, data):
            conn.send(payload)
            conn.close()

    class Sink(TcpApp):
        def __init__(self):
            self.received = 0

        def on_established(self, conn):
            conn.send(b"G")

        def on_data(self, conn, data):
            self.received += len(data)

    def transfer():
        sim = Simulator()
        topo = Topology(sim, RandomStreams(0))
        topo.add_node("client")
        topo.add_node("server")
        topo.connect("client", "server", delay=units.ms(20),
                     bandwidth=units.mbps(500))
        client_host = TcpHost(sim, topo.node("client"))
        server_host = TcpHost(sim, topo.node("server"))
        server_host.listen(80, Responder)
        sink = Sink()
        client_host.connect(Endpoint("server", 80), sink)
        sim.run()
        return sink.received

    received = benchmark(transfer)
    assert received == len(payload)


def test_bench_single_query_end_to_end(benchmark):
    """One full search query through client -> FE -> BE -> client."""
    keyword = Keyword(text="micro benchmark query", popularity=0.5,
                      complexity=0.5)

    def query():
        scenario = Scenario(ScenarioConfig(seed=50, vantage_count=2))
        vp = scenario.vantage_points[0]
        frontend, _ = scenario.connect_default(Scenario.GOOGLE, vp)
        emulator = QueryEmulator(scenario, vp)
        session = emulator.open_session(Scenario.GOOGLE, frontend, keyword)
        emulator.simulate(session, frontend)
        scenario.sim.run()
        return session

    session = benchmark(query)
    assert session.complete


def _dataset_a_campaign(replay_cache, tier="packet"):
    """A small Dataset-A campaign shaped for session-timeline reuse.

    Deterministic keyed services and a repeat/interval combination that
    keeps most rounds inside one start-time binade, so the replay cache
    (when enabled) converts the bulk of the 120 sessions into hits.
    The two benchmarks below run the identical campaign with the cache
    off and on; their ratio is the cache's campaign-level speedup.  The
    analytic benchmark runs it once more with ``tier="analytic"``; its
    ratio against the simulated run is the closed-form model's speedup.
    """
    scenario = Scenario(ScenarioConfig(seed=7, vantage_count=3,
                                       keyed_service_draws=True,
                                       deterministic_services=True))
    keyword = Keyword(text="campaign benchmark query", popularity=0.8,
                      complexity=0.3)
    return run_dataset_a(scenario, [keyword], repeats=40, interval=3.0,
                         services=[Scenario.GOOGLE],
                         replay_cache=replay_cache, tier=tier)


def test_bench_dataset_a_campaign_simulated(benchmark):
    """Dataset-A campaign wall-clock with the replay cache OFF."""
    dataset = benchmark(lambda: _dataset_a_campaign(False))
    assert len(dataset.sessions) == 120
    assert all(s.complete for s in dataset.sessions)
    assert dataset.replay is None


def test_bench_dataset_a_campaign_replay_cached(benchmark):
    """The same campaign with the replay cache ON (>= 1.5x target)."""
    dataset = benchmark(lambda: _dataset_a_campaign(True))
    assert len(dataset.sessions) == 120
    assert all(s.complete for s in dataset.sessions)
    assert dataset.replay is not None
    assert dataset.replay.hits > len(dataset.sessions) // 2


def test_bench_dataset_a_campaign_analytic(benchmark):
    """The same campaign on the analytic tier (>= 10x target).

    ``tier="analytic"`` serves every admitted session from the closed-
    form model (repro.sim.analytic) without packet simulation; only the
    time-origin session is simulated.  Its median against
    ``test_bench_dataset_a_campaign_simulated`` is the analytic tier's
    campaign-level speedup; the model's accuracy is asserted separately
    by the divergence-gate tests and the auto-tier smoke run in CI.
    """
    dataset = benchmark(lambda: _dataset_a_campaign(False, "analytic"))
    assert len(dataset.sessions) == 120
    assert all(s.complete for s in dataset.sessions)
    assert dataset.replay is None
    assert dataset.tier is not None
    assert dataset.tier.analytic > 100
    assert dataset.tier.divergences == 0


def test_bench_dataset_a_campaign_finite_cache(benchmark):
    """The Dataset-A campaign against a finite (evicting) FE cache.

    Same shape as ``test_bench_dataset_a_campaign_simulated`` but with
    a 2-object LRU static cache and a keyword rotation that re-references
    one hot keyword between two colder ones, so the rounds exercise the
    whole lookup/evict/fill path — hits, evictions, and full-page
    origin fetches.  Its ratio against the simulated baseline is the
    cache subsystem's campaign-level overhead (plus the extra
    origin-fetch traffic it induces).
    """
    from repro.cache import CacheHierarchySpec, CacheSpec

    distinct = [Keyword(text="campaign cache query %d" % index,
                        popularity=0.8, complexity=0.3)
                for index in range(3)]
    # hot, cold, hot, cold: the hot keyword survives LRU, the cold
    # pair keeps displacing each other -> hits AND evictions.
    keywords = [distinct[0], distinct[1], distinct[0], distinct[2]]

    def campaign():
        scenario = Scenario(ScenarioConfig(
            seed=7, vantage_count=3, keyed_service_draws=True,
            deterministic_services=True,
            fe_cache=CacheHierarchySpec(
                static=CacheSpec("lru", capacity_bytes=2 * 4300))))
        return scenario, run_dataset_a(
            scenario, keywords, repeats=40, interval=3.0,
            services=[Scenario.GOOGLE])

    scenario, dataset = benchmark(campaign)
    assert len(dataset.sessions) == 120
    assert all(s.complete for s in dataset.sessions)
    frontends = scenario.service(Scenario.GOOGLE).frontends
    fetches = sum(fe.static_cache.origin_fetches for fe in frontends)
    hits = sum(fe.static_cache.levels[0].hits for fe in frontends)
    assert fetches > 0 and hits > 0


def test_bench_streaming_campaign(benchmark):
    """A small open-loop streaming campaign through the folding runner.

    600 Zipf+Poisson events on the analytic tier — the streaming
    analogue of the Dataset-A campaign benchmarks.  Tracks the
    per-event cost of the bounded-memory path (event feed, sliding
    schedule, session folding, sketch updates); the memory-flatness
    property itself is asserted by
    ``benchmarks/test_bench_streaming_memory.py``.
    """
    from repro.measure.streaming import run_streaming_campaign
    from repro.workload import OpenLoopWorkload, WorkloadSpec

    config = ScenarioConfig(seed=7, vantage_count=6,
                            keyed_service_draws=True,
                            deterministic_services=True)
    spec = WorkloadSpec(seed=7, users=200, duration=600.0,
                        session_rate=2.0, keyword_count=128,
                        max_events=600, services=(Scenario.GOOGLE,))

    def campaign():
        scenario = Scenario(config)
        workload = OpenLoopWorkload(
            spec, [vp.name for vp in scenario.vantage_points])
        return run_streaming_campaign(scenario, workload,
                                      tier="analytic")

    result = benchmark(campaign)
    assert result.events == 600
    assert result.sessions == 600
    assert result.failures == 0
    assert result.tier is not None and result.tier.analytic > 0
    assert result.sketches["duration/%s" % Scenario.GOOGLE].count == 600


def test_bench_dataset_a_campaign_traced(benchmark):
    """The cache-off campaign with observability (repro.obs) ENABLED.

    Pairs with ``test_bench_dataset_a_campaign_simulated`` (same
    campaign, tracing off): their ratio is the full cost of tracing —
    the guarded hot-path counters plus the post-hoc span build and
    campaign metrics.  The disabled cost is separately bounded by the
    engine/TCP benchmarks above staying flat across PRs.
    """
    from repro import obs

    def traced():
        obs.reset()
        dataset = _dataset_a_campaign(False)
        return dataset

    obs.enable()
    try:
        dataset = benchmark(traced)
    finally:
        obs.disable()
        obs.reset()
    assert len(dataset.sessions) == 120
    assert dataset.trace is not None and len(dataset.trace) == 120
    assert dataset.obs_metrics.counters["fe.requests"] == 120


def test_bench_lint_cold(benchmark):
    """One simlint run over the simulation core ``src/repro/sim``."""
    import os

    from repro.lint import LintConfig, LintRunner

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sim_tree = os.path.join(root, "src", "repro", "sim")

    def cold():
        runner = LintRunner(LintConfig())
        findings = runner.run_paths([sim_tree])
        return runner, [f for f in findings if f.blocking]

    runner, blocking = benchmark(cold)
    assert blocking == []
    assert runner.files_analyzed == runner.files_scanned > 0
