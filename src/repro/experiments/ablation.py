"""Ablation experiments for the design choices DESIGN.md calls out.

1. **Split TCP vs direct-to-back-end** — the FE's reason to exist
   (paper Sec. 1/2; cf. Pathak et al. [9]).
2. **FE static caching on/off** — the FE's first role.
3. **FE placement density** — the paper's placement-vs-fetch-time
   trade-off: beyond the RTT threshold, denser placement stops helping.
4. **Last-hop loss sweep** — the paper's Sec. 6 discussion: split TCP's
   advantage grows in lossy (e.g. wireless) access networks.

All ablations compare *user-perceived* times (connection open to last
byte, or time-to-first-byte) from the application viewpoint, so they
need no boundary calibration.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional

from repro.analysis.stats import median
from repro.content.keywords import Keyword
from repro.experiments.common import ExperimentScale, build_scenario
from repro.http.client import HttpFetch, RequestHooks
from repro.http.message import HttpRequest, build_query_path
from repro.measure.driver import run_queries
from repro.measure.emulator import QueryEmulator
from repro.measure.streaming import StreamingSchedule
from repro.net.address import Endpoint
from repro.services.backend import BACKEND_PORT
from repro.sim.executor import SessionExecutor
from repro.testbed.scenario import Scenario, ScenarioConfig
from repro.testbed.sites import nearest_metro
from repro.testbed.vantage import VantagePoint

ABLATION_KEYWORD = Keyword(text="ablation probe query", popularity=0.5,
                           complexity=0.5)
#: The service the split-TCP, idle-reset and loss ablations measure.
SPLIT_TCP_SERVICE = Scenario.GOOGLE
#: The service the cache and placement ablations measure: its
#: Akamai-like deployment has the coverage knob.
CACHE_SERVICE = Scenario.BING
#: FE coverage levels of the placement sweep.
PLACEMENT_COVERAGES = (0.3, 0.6, 0.95)
#: Seconds between the idle-reset ablation's queries: longer than an
#: RTO, so the reset (when on) collapses the window before each one.
IDLE_GAP = 5.0
#: Last-hop loss rates of the loss sweep.
LOSS_RATES = (0.0, 0.01, 0.03)


# ---------------------------------------------------------------------------
# 1. split TCP vs direct-to-BE
# ---------------------------------------------------------------------------
@dataclass
class SplitTcpAblationResult:
    """Median response times with and without the front-end proxy."""

    service: str
    split_median: float
    direct_median: float
    samples: int

    @property
    def speedup(self) -> float:
        """direct / split (> 1 means split TCP wins)."""
        if self.split_median <= 0:
            return float("inf")
        return self.direct_median / self.split_median


def run_split_tcp_ablation(scale: Optional[ExperimentScale] = None, *,
                           loss_rate: float = 0.0
                           ) -> SplitTcpAblationResult:
    """Same queries through the FE versus straight to the back-end."""
    scale = scale or ExperimentScale.small()
    service_name = SPLIT_TCP_SERVICE
    scenario = build_scenario(scale, client_loss_rate=loss_rate)
    service = scenario.service(service_name)
    vp = _split_friendly_vantage_point(scenario, service_name)
    frontend = scenario.default_frontend(service_name, vp)
    scenario.link_client_to_frontend(vp, frontend, service)
    backend = service.backend_for_frontend(frontend)
    _link_client_to_backend(scenario, vp, backend)
    service.register_keywords([ABLATION_KEYWORD])

    emulator = QueryEmulator(scenario, vp)
    # The chain cannot be planned ahead, so it submits straight to a
    # packet-only executor.
    executor = SessionExecutor(scenario, StreamingSchedule(),
                               tier="packet", replay_cache=False)
    sim = scenario.sim
    split_sessions = []
    direct_durations: List[float] = []

    # Each round queries through the FE, then ``interval`` later straight
    # to the back-end; the next round starts ``interval`` after that
    # fetch ends (TCP's retry limits end a stuck one through on_failure).
    # The direct fetch is no search session: it bypasses the FE.
    def split_query(index: int) -> None:
        if index < scale.repeats:
            split_sessions.append(executor.submit(
                emulator, service_name, frontend, ABLATION_KEYWORD))
            sim.schedule(scale.interval, direct_query, index)

    def direct_query(index: int) -> None:
        start = sim.now

        def done(end: Optional[float]) -> None:
            if end is not None:
                direct_durations.append(end - start)
            sim.schedule(scale.interval, split_query, index + 1)

        path = build_query_path("/search", {
            "q": ABLATION_KEYWORD.text,
            "id": "direct-%s-%04d" % (vp.name, index)})
        HttpFetch(scenario.client_host(vp),
                  Endpoint(backend.node.name, BACKEND_PORT),
                  HttpRequest(path=path, headers={"X-Full-Page": "1"}),
                  RequestHooks(
                      on_complete=lambda response: done(sim.now),
                      on_failure=lambda message: done(None)))

    sim.schedule(0.0, split_query, 0)
    sim.run()

    split_durations = [s.duration for s in split_sessions if s.complete]
    if not split_durations or not direct_durations:
        raise RuntimeError("ablation produced no complete samples")
    return SplitTcpAblationResult(
        service=service_name,
        split_median=median(split_durations),
        direct_median=median(direct_durations),
        samples=min(len(split_durations), len(direct_durations)))


def _split_friendly_vantage_point(scenario: Scenario,
                                  service_name: str) -> VantagePoint:
    """A controlled client where split TCP's textbook win shows.

    Split TCP pays off when the client sits next to an FE but far from
    every back-end (the FE terminates the short leg and runs the long
    slow-start-free leg itself).  Co-locate a probe client with the FE
    whose back-end is farthest — e.g. an Asian/Oceanian edge site
    fetching from a US data center.
    """
    from repro.experiments.common import colocated_vantage_point

    service = scenario.service(service_name)
    frontend = max(service.frontends,
                   key=lambda fe: fe.location.distance_miles(
                       service.backend_for_frontend(fe).location))
    return colocated_vantage_point(scenario,
                                   nearest_metro(frontend.location),
                                   "split-ablation")


def _link_client_to_backend(scenario: Scenario, vp: VantagePoint,
                            backend) -> None:
    key = (vp.name, backend.node.name)
    if key in scenario._links_built:
        return
    delay = vp.one_way_delay_to(backend.location, None)
    scenario.topology.connect(vp.name, backend.node.name, delay=delay,
                              bandwidth=scenario.config.client_bandwidth,
                              loss_rate=scenario.config.client_loss_rate)
    scenario._links_built.add(key)


# ---------------------------------------------------------------------------
# 2. FE static caching on/off
# ---------------------------------------------------------------------------
@dataclass
class CacheAblationResult:
    """Time-to-first-byte and overall delay with/without the FE cache."""

    service: str
    ttfb_cached: float
    ttfb_uncached: float
    overall_cached: float
    overall_uncached: float

    @property
    def ttfb_improvement(self) -> float:
        """Seconds of first-byte latency the static cache saves."""
        return self.ttfb_uncached - self.ttfb_cached


def run_cache_ablation(scale: Optional[ExperimentScale] = None
                       ) -> CacheAblationResult:
    """Compare TTFB and overall delay with the FE cache on vs off."""
    scale = scale or ExperimentScale.small()
    service_name = CACHE_SERVICE
    medians = {}
    for cached in (True, False):
        scenario = build_scenario(scale, cache_static=cached)
        vp = scenario.vantage_points[0]
        frontend = scenario.default_frontend(service_name, vp)
        plan = []
        time = scenario.sim.now
        for _ in range(scale.repeats):
            plan.append((time, vp, service_name, frontend,
                         ABLATION_KEYWORD))
            time = time + scale.interval
        sessions = run_queries(scenario, plan)[vp.name]
        complete = [s for s in sessions if s.complete]
        if not complete:
            raise RuntimeError("no complete sessions (cached=%s)" % cached)
        ttfbs = [s.inbound_data_events()[0].time - s.started_at
                 for s in complete]
        overalls = [s.duration for s in complete]
        medians[cached] = (median(ttfbs), median(overalls))
    return CacheAblationResult(
        service=service_name,
        ttfb_cached=medians[True][0], ttfb_uncached=medians[False][0],
        overall_cached=medians[True][1],
        overall_uncached=medians[False][1])


# ---------------------------------------------------------------------------
# 3. FE placement density
# ---------------------------------------------------------------------------
@dataclass
class PlacementPoint:
    """One coverage level of the placement sweep."""

    coverage: float
    median_rtt: float
    median_overall: float


@dataclass
class PlacementAblationResult:
    """The placement-vs-fetch-time trade-off curve."""

    service: str
    points: List[PlacementPoint] = field(default_factory=list)

    def rtt_gain(self) -> float:
        """RTT reduction from sparsest to densest coverage (seconds)."""
        return self.points[0].median_rtt - self.points[-1].median_rtt

    def overall_gain(self) -> float:
        """Overall-delay reduction over the same sweep (seconds)."""
        return (self.points[0].median_overall
                - self.points[-1].median_overall)


def run_placement_ablation(scale: Optional[ExperimentScale] = None
                           ) -> PlacementAblationResult:
    """Sweep FE density; RTT improves but overall delay saturates."""
    scale = scale or ExperimentScale.small()
    service_name = CACHE_SERVICE
    result = PlacementAblationResult(service=service_name)
    for coverage in PLACEMENT_COVERAGES:
        scenario = build_scenario(scale, akamai_coverage=coverage)
        now = scenario.sim.now
        rtts, plan = [], []
        for vp in scenario.vantage_points[:max(10, scale.vantage_count
                                               // 3)]:
            frontend, rtt = scenario.connect_default(service_name, vp)
            rtts.append(rtt)
            plan.append((now, vp, service_name, frontend, ABLATION_KEYWORD))
        overalls = [s.duration
                    for sessions in run_queries(scenario, plan).values()
                    for s in sessions if s.complete]
        result.points.append(PlacementPoint(
            coverage=coverage,
            median_rtt=median(rtts),
            median_overall=median(overalls)))
    return result


# ---------------------------------------------------------------------------
# 4. persistent-connection warmth (RFC 2861 idle reset)
# ---------------------------------------------------------------------------
@dataclass
class IdleResetAblationResult:
    """Fetch times with warm vs idle-resetting FE-BE connections.

    The paper's split-TCP argument rests on the FE's *persistent*
    back-end connection having no slow-start ramp.  2011 Linux defaults
    (RFC 2861) collapse an idle connection's window back to the initial
    window — so a provider that left the default on would lose the
    benefit for sparse query arrivals.  This ablation measures exactly
    that: median ground-truth Tfetch with the idle reset off (warm)
    versus on (cold after every idle gap).
    """

    service: str
    warm_tfetch_median: float
    cold_tfetch_median: float
    samples: int

    @property
    def idle_penalty(self) -> float:
        """Seconds of fetch time the idle reset costs per query."""
        return self.cold_tfetch_median - self.warm_tfetch_median


def run_idle_reset_ablation(scale: Optional[ExperimentScale] = None
                            ) -> IdleResetAblationResult:
    """Sparse queries over Reno FE-BE connections, idle reset on/off."""
    from repro.services.deployment import google_like_profile
    from repro.tcp.config import TcpConfig

    scale = scale or ExperimentScale.small()
    service_name = SPLIT_TCP_SERVICE
    medians = {}
    samples = 0
    for reset in (False, True):
        backend_tcp = TcpConfig(slow_start_after_idle=reset)
        profile = replace(google_like_profile(), backend_window_bytes=None,
                          backend_tcp=backend_tcp)
        scenario = Scenario(
            ScenarioConfig(seed=scale.seed,
                           vantage_count=scale.vantage_count),
            google_profile=profile)
        service = scenario.service(service_name)
        # The FE farthest from its back-end shows the ramp most clearly.
        frontend = max(service.frontends,
                       key=lambda fe: fe.location.distance_miles(
                           service.backend_for_frontend(fe).location))
        service.register_keywords([ABLATION_KEYWORD])
        from repro.experiments.common import colocated_vantage_point
        vp = colocated_vantage_point(scenario,
                                     nearest_metro(frontend.location),
                                     "idle-reset")
        plan = []
        time = scenario.sim.now
        for _ in range(max(6, scale.repeats)):
            plan.append((time, vp, service_name, frontend,
                         ABLATION_KEYWORD))
            time = time + IDLE_GAP
        run_queries(scenario, plan)
        tfetches = sorted(
            record.tfetch for record in frontend.fetch_log.values()
            if record.tfetch is not None)
        # Skip the very first query: both variants are cold there.
        tfetches = tfetches[1:] if len(tfetches) > 2 else tfetches
        medians[reset] = median(tfetches)
        samples = len(tfetches)
    return IdleResetAblationResult(
        service=service_name,
        warm_tfetch_median=medians[False],
        cold_tfetch_median=medians[True],
        samples=samples)


# ---------------------------------------------------------------------------
# 5. last-hop loss sweep
# ---------------------------------------------------------------------------
@dataclass
class LossSweepPoint:
    """One loss-rate level of the last-hop sweep."""

    loss_rate: float
    split_median: float
    direct_median: float

    @property
    def split_advantage(self) -> float:
        return self.direct_median - self.split_median


@dataclass
class LossAblationResult:
    """Split-TCP benefit as a function of last-hop loss."""

    service: str
    points: List[LossSweepPoint] = field(default_factory=list)

    def advantage_grows_with_loss(self) -> bool:
        advantages = [p.split_advantage for p in self.points]
        return advantages[-1] > advantages[0]


def run_loss_ablation(scale: Optional[ExperimentScale] = None
                      ) -> LossAblationResult:
    """Sweep last-hop loss; split TCP's advantage should grow."""
    scale = scale or ExperimentScale.small()
    # Loss recovery times are high-variance; triple the samples.
    scale = replace(scale, repeats=max(scale.repeats * 3, 15))
    result = LossAblationResult(service=SPLIT_TCP_SERVICE)
    for loss in LOSS_RATES:
        ablation = run_split_tcp_ablation(scale, loss_rate=loss)
        result.points.append(LossSweepPoint(
            loss_rate=loss,
            split_median=ablation.split_median,
            direct_median=ablation.direct_median))
    return result
