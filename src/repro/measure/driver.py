"""Experiment drivers: the paper's two measurement campaigns.

* **Datasets A** — every vantage point queries its *default* (DNS-
  resolved) front-end server of each service every ``interval`` seconds.
* **Datasets B** — one *fixed* front-end server per service; every
  vantage point queries it repeatedly with the same keyword.

Both campaigns are closed-loop event streams
(:func:`closed_loop_events`): vantage-point start times are staggered
so queries don't synchronise, then each vantage point submits every
``interval`` seconds.  The one campaign runner
(:func:`repro.measure.streaming.run_event_stream`) plays the stream;
the drivers keep every session and return dataset objects holding
completed :class:`~repro.measure.session.QuerySession` lists.

The figure experiments' own schedules (a keyword set every interval, a
background crowd around a probe, a typist's keystrokes, the boundary
calibration's batch, Fig. 4's probe slots) are *plans*: time-ordered
``(time, vp, service, frontend, keyword)`` lists that
:func:`run_queries` plays through the same runner.  Each entry names
its own front-end, so one vantage point may address several.  Either
way, every session starts in
:meth:`repro.sim.executor.SessionExecutor.submit`.

A vantage point's stagger offset is derived from its index in the
scenario's *full* fleet, not its position in the subset handed to the
driver: a sharded campaign (see :mod:`repro.parallel`) that runs each VP
subset in its own process must give every query the exact start time it
would have had in the serial run.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro import obs
from repro.content.keywords import Keyword
from repro.measure.emulator import QueryEmulator
from repro.measure.session import QuerySession
from repro.measure.streaming import run_event_stream
from repro.services.frontend import FrontEndServer
from repro.sim.stats import ReplayStats, TierStats
from repro.testbed.scenario import Scenario
from repro.testbed.vantage import VantagePoint
from repro.workload.generator import QueryEvent


@dataclass
class DatasetA:
    """Default-FE campaign results (paper's Datasets A)."""

    sessions: List[QuerySession] = field(default_factory=list)
    #: (vp_name, service) -> (fe_name, rtt_seconds)
    default_fe: Dict[Tuple[str, str], Tuple[str, float]] = \
        field(default_factory=dict)
    #: Session-replay cache accounting, or None when the cache was off.
    replay: Optional[ReplayStats] = None
    #: Tiered-execution accounting, or None when tier was "packet".
    tier: Optional[TierStats] = None
    #: Observability capture (repro.obs), set when tracing is enabled:
    #: the campaign's canonical serialized spans and its metrics.
    trace: Optional[list] = None
    obs_metrics: Optional[obs.MetricsSnapshot] = None

    def for_service(self, service: str) -> List[QuerySession]:
        return [s for s in self.sessions if s.service == service]

    def for_vp(self, vp_name: str, service: Optional[str] = None
               ) -> List[QuerySession]:
        return [s for s in self.sessions
                if s.vp_name == vp_name
                and (service is None or s.service == service)]


@dataclass
class DatasetB:
    """Fixed-FE campaign results (paper's Datasets B) for one service."""

    service: str
    fe_name: str
    sessions: List[QuerySession] = field(default_factory=list)
    #: Session-replay cache accounting, or None when the cache was off.
    replay: Optional[ReplayStats] = None
    #: Tiered-execution accounting, or None when tier was "packet".
    tier: Optional[TierStats] = None
    #: Observability capture (repro.obs), as on :class:`DatasetA`.
    trace: Optional[list] = None
    obs_metrics: Optional[obs.MetricsSnapshot] = None

    def for_vp(self, vp_name: str) -> List[QuerySession]:
        return [s for s in self.sessions if s.vp_name == vp_name]


def run_dataset_a(scenario: Scenario, keywords: Sequence[Keyword], *,
                  repeats: int = 10,
                  interval: float = 10.0,
                  services: Optional[Sequence[str]] = None,
                  vantage_points: Optional[Sequence[VantagePoint]] = None,
                  replay_cache: Optional[bool] = None,
                  tier: Optional[str] = None) -> DatasetA:
    """Run the default-FE campaign and return its sessions.

    Each vantage point issues ``repeats`` rounds; in every round it sends
    one query per service (cycling through ``keywords``), then sleeps
    ``interval`` seconds.

    ``replay_cache`` controls the session-replay cache (see
    :mod:`repro.sim.replay` and
    :class:`~repro.sim.executor.SessionExecutor`); the default follows
    the ``REPRO_REPLAY_CACHE`` environment variable.  The cache serves
    packet-tier sessions under every tier and changes no observable
    output, only wall-clock time.

    ``tier`` selects the execution tier (``packet``/``analytic``/
    ``auto``; default from ``REPRO_TIER``).  Modes other than ``packet``
    route admitted sessions through the closed-form analytic model and
    set ``dataset.tier`` (see :mod:`repro.sim.analytic`).
    """
    if not keywords:
        raise ValueError("need at least one keyword")
    services = list(services or scenario.services)
    dataset = DatasetA()
    emulators: Dict[str, QueryEmulator] = {}
    frontends: Dict[Tuple[str, str], FrontEndServer] = {}
    for vp in vantage_points or scenario.vantage_points:
        emulators[vp.name] = QueryEmulator(scenario, vp)
        for service_name in services:
            frontend, rtt = scenario.connect_default(service_name, vp)
            frontends[(service_name, vp.name)] = frontend
            dataset.default_fe[(vp.name, service_name)] = \
                (frontend.node.name, rtt)
    _run_closed_loop(scenario, dataset, "dataset_a", emulators, frontends,
                     services, keywords, repeats, interval,
                     replay_cache, tier)
    return dataset


def run_dataset_b(scenario: Scenario, service_name: str,
                  frontend: FrontEndServer, keyword: Keyword, *,
                  repeats: int = 10,
                  interval: float = 10.0,
                  vantage_points: Optional[Sequence[VantagePoint]] = None,
                  replay_cache: Optional[bool] = None,
                  tier: Optional[str] = None) -> DatasetB:
    """Run the fixed-FE campaign for one service and return its sessions.

    ``replay_cache`` and ``tier`` work as in :func:`run_dataset_a`.
    """
    service = scenario.service(service_name)
    dataset = DatasetB(service=service_name, fe_name=frontend.node.name)
    emulators: Dict[str, QueryEmulator] = {}
    frontends: Dict[Tuple[str, str], FrontEndServer] = {}
    for vp in vantage_points or scenario.vantage_points:
        scenario.link_client_to_frontend(vp, frontend, service)
        emulators[vp.name] = QueryEmulator(scenario, vp)
        frontends[(service_name, vp.name)] = frontend
    _run_closed_loop(scenario, dataset, "dataset_b", emulators, frontends,
                     [service_name], [keyword], repeats, interval,
                     replay_cache, tier)
    return dataset


def _run_closed_loop(scenario: Scenario, dataset, kind: str,
                     emulators: Dict[str, QueryEmulator],
                     frontends: Dict[Tuple[str, str], FrontEndServer],
                     services: Sequence[str], keywords: Sequence[Keyword],
                     repeats: int, interval: float,
                     replay_cache: Optional[bool],
                     tier: Optional[str]) -> None:
    """Play a closed-loop campaign from the current clock, keeping its
    sessions on ``dataset``.  The clock ends where a per-VP "submit,
    sleep ``interval``" loop would leave it: one ``interval`` past the
    last submission."""
    vps = [emulator.vp for emulator in emulators.values()]
    sim = scenario.sim
    start = sim.now
    with obs.capture() as captured:
        engine_start = sim.events_processed, sim.compactions
        _, dataset.replay, dataset.tier = run_event_stream(
            scenario,
            lambda: closed_loop_events(scenario, vps, services, keywords,
                                       repeats, interval, start),
            emulators,
            lambda event: frontends[(event.service, event.vp_name)],
            tail=interval, tier=tier, replay_cache=replay_cache)
        for emulator in emulators.values():
            dataset.sessions.extend(emulator.sessions)
        if captured is not None:
            obs.record_campaign(kind, scenario, dataset, engine_start)
    if captured is not None:
        dataset.trace = captured.tracer.snapshot()
        dataset.obs_metrics = captured.metrics.snapshot()
        obs.absorb(captured)


def closed_loop_events(scenario: Scenario, vps: Sequence[VantagePoint],
                       services: Sequence[str],
                       keywords: Sequence[Keyword], repeats: int,
                       interval: float, start: float
                       ) -> Iterator[QueryEvent]:
    """A closed-loop campaign as one time-ordered event stream.

    Each vantage point starts at its stagger after ``start``: its index
    in the scenario's full fleet over the fleet size, times
    ``interval`` (VPs outside the fleet, possible only with hand-built
    lists, are numbered after it).  It then sends one query per service
    (in ``services`` order) in each of ``repeats`` rounds, cycling
    through ``keywords``, with rounds ``t + interval`` apart.  Events
    carry the VP's position in ``vps`` as their session and user, and
    the round as their query index.
    """
    fleet = {vp.name: index
             for index, vp in enumerate(scenario.vantage_points)}
    fleet_size = max(1, len(fleet))

    def vp_events(index: int, vp: VantagePoint) -> Iterator[QueryEvent]:
        time = start + (fleet[vp.name] / fleet_size) * interval
        for round_index in range(repeats):
            keyword = keywords[round_index % len(keywords)]
            for service_name in services:
                yield QueryEvent(time=time, session_id=index,
                                 query_index=round_index, user=index,
                                 vp_name=vp.name, service=service_name,
                                 keyword=keyword)
            time = time + interval

    for vp in vps:
        fleet.setdefault(vp.name, len(fleet))
    return heapq.merge(*(vp_events(index, vp)
                         for index, vp in enumerate(vps)),
                       key=attrgetter("time"))


def run_single_queries(scenario: Scenario, service_name: str,
                       frontend: FrontEndServer,
                       assignments: Iterable[Tuple[VantagePoint, Keyword]],
                       *, spacing: float = 1.0) -> List[QuerySession]:
    """Issue one query per (vantage point, keyword) pair, spaced in time.

    Used by the FE-caching experiments: "all measurement nodes submit the
    same search query sequentially to a fixed FE server" (spacing > 0
    makes them sequential) and "each node submits a different search
    query".  Sessions come back grouped by vantage point, in order of
    first appearance.
    """
    start = scenario.sim.now
    plan = [(start + index * spacing, vp, service_name, frontend, keyword)
            for index, (vp, keyword) in enumerate(assignments)]
    sessions: List[QuerySession] = []
    for vp_sessions in run_queries(scenario, plan).values():
        sessions.extend(vp_sessions)
    return sessions


#: One planned submission: (time, vantage point, service, front-end,
#: keyword).
PlannedQuery = Tuple[float, VantagePoint, str, FrontEndServer, Keyword]


def run_queries(scenario: Scenario, plan: Iterable[PlannedQuery], *,
                store_payload: bool = False
                ) -> Dict[str, List[QuerySession]]:
    """Submit a plan of queries and run the simulator until it drains.

    ``plan`` lists ``(time, vp, service, frontend, keyword)`` tuples in
    time order; queries at the same instant are submitted in plan
    order.  Each vantage point is linked to every front-end it plans
    for and gets one emulator, so a VP that appears several times keeps
    one query-id counter and every submission gets a globally unique
    id.  ``store_payload`` keeps packet payloads on the capture (the
    content analysis needs them).  The plan plays through the one
    campaign runner as plain packet simulation: the experiments that
    plan their queries study what the fast paths would bypass (FE
    caches, load, keyword cost).

    Returns each vantage point's sessions in submission order, keyed by
    VP name in order of first appearance.
    """
    plan = list(plan)
    emulators: Dict[str, QueryEmulator] = {}
    for _, vp, service_name, frontend, _ in plan:
        scenario.link_client_to_frontend(vp, frontend,
                                         scenario.service(service_name))
        if vp.name not in emulators:
            emulators[vp.name] = QueryEmulator(scenario, vp,
                                               store_payload=store_payload)

    def events() -> Iterator[QueryEvent]:
        for index, (time, vp, service_name, _, keyword) in enumerate(plan):
            yield QueryEvent(time=time, session_id=index, query_index=0,
                             user=index, vp_name=vp.name,
                             service=service_name, keyword=keyword)

    # An event's session id is its plan row; [3] is the row's front-end.
    run_event_stream(scenario, events, emulators,
                     lambda event: plan[event.session_id][3],
                     tier="packet", replay_cache=False)
    return {name: emulator.sessions
            for name, emulator in emulators.items()}
