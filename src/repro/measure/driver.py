"""Experiment drivers: the paper's two measurement campaigns.

* **Datasets A** — every vantage point queries its *default* (DNS-
  resolved) front-end server of each service every ``interval`` seconds.
* **Datasets B** — one *fixed* front-end server per service; every
  vantage point queries it repeatedly with the same keyword.

Both drivers stagger vantage-point start times so queries don't
synchronise, run the simulation to completion, and return dataset objects
holding completed :class:`~repro.measure.session.QuerySession` lists.

A vantage point's stagger offset is derived from its index in the
scenario's *full* fleet, not its position in the subset handed to the
driver: a sharded campaign (see :mod:`repro.parallel`) that runs each VP
subset in its own process must give every query the exact start time it
would have had in the serial run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro import obs
from repro.content.keywords import Keyword
from repro.measure.emulator import QueryEmulator
from repro.measure.session import QuerySession
from repro.services.frontend import FrontEndServer
from repro.sim.executor import SessionExecutor
from repro.sim.process import Sleep, spawn
from repro.sim.replay import SubmissionSchedule
from repro.sim.stats import ReplayStats, TierStats
from repro.testbed.scenario import Scenario
from repro.testbed.vantage import VantagePoint


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
    #: canonical serialized spans and the campaign's metric delta.
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
                  store_payload: bool = False,
                  run_timeout: Optional[float] = None,
                  replay_cache=None,
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
    vps = list(vantage_points or scenario.vantage_points)
    dataset = DatasetA()
    emulators = []
    staggers = _fleet_staggers(scenario, vps, interval)
    executor = SessionExecutor(
        scenario,
        _dataset_a_schedule(scenario, vps, services, repeats, interval,
                            staggers),
        tier=tier, replay_cache=replay_cache,
        store_payload=store_payload, run_timeout=run_timeout)
    obs_mark = obs.campaign_begin(scenario)

    for vp in vps:
        emulator = QueryEmulator(scenario, vp, store_payload=store_payload)
        emulators.append(emulator)
        frontends = {}
        for service_name in services:
            frontend, rtt = scenario.connect_default(service_name, vp)
            frontends[service_name] = frontend
            dataset.default_fe[(vp.name, service_name)] = \
                (frontend.node.name, rtt)
        spawn(scenario.sim,
              _vp_loop(scenario, emulator, frontends, keywords,
                       repeats, interval, staggers[vp.name], executor))

    scenario.sim.run(until=run_timeout)
    for emulator in emulators:
        dataset.sessions.extend(emulator.sessions)
    dataset.replay, dataset.tier = executor.finalize()
    obs.campaign_end(obs_mark, "dataset_a", scenario, dataset)
    return dataset


def _dataset_a_schedule(scenario: Scenario, vps: Sequence[VantagePoint],
                        services: Sequence[str], repeats: int,
                        interval: float,
                        staggers: Dict[str, float]) -> SubmissionSchedule:
    """Planned per-FE submission times of a Dataset-A run.

    Replicates :func:`_vp_loop`'s float arithmetic exactly (stagger,
    then repeated ``t + interval``): the executor compares these times
    for equality against ``sim.now``.
    """
    schedule = SubmissionSchedule()
    for vp in vps:
        fe_names = [scenario.default_frontend(name, vp).node.name
                    for name in services]
        time = staggers[vp.name] if staggers[vp.name] > 0 else 0.0
        for _ in range(repeats):
            for fe_name in fe_names:
                schedule.add(fe_name, time)
            time = time + interval
    return schedule.freeze()


def _fleet_staggers(scenario: Scenario, vps: Sequence[VantagePoint],
                    interval: float) -> Dict[str, float]:
    """Per-VP start offsets, positioned by index in the *full* fleet.

    Vantage points not in the scenario fleet (possible only with
    hand-built VP lists) are appended after it, preserving the old
    subset-relative behaviour for them.
    """
    fleet_index = {vp.name: index
                   for index, vp in enumerate(scenario.vantage_points)}
    fleet_size = max(1, len(scenario.vantage_points))
    staggers = {}
    extra = len(fleet_index)
    for vp in vps:
        index = fleet_index.get(vp.name)
        if index is None:
            index = extra
            extra += 1
        staggers[vp.name] = (index / fleet_size) * interval
    return staggers


def _vp_loop(scenario: Scenario, emulator: QueryEmulator,
             frontends: Dict[str, FrontEndServer],
             keywords: Sequence[Keyword], repeats: int,
             interval: float, stagger: float,
             executor: SessionExecutor):
    """Per-vantage-point query loop (a simulator process)."""
    if stagger > 0:
        yield Sleep(stagger)
    for round_index in range(repeats):
        keyword = keywords[round_index % len(keywords)]
        for service_name, frontend in frontends.items():
            executor.submit(emulator, service_name, frontend, keyword)
        yield Sleep(interval)


def run_dataset_b(scenario: Scenario, service_name: str,
                  frontend: FrontEndServer, keyword: Keyword, *,
                  repeats: int = 10,
                  interval: float = 10.0,
                  vantage_points: Optional[Sequence[VantagePoint]] = None,
                  store_payload: bool = False,
                  run_timeout: Optional[float] = None,
                  replay_cache=None,
                  tier: Optional[str] = None) -> DatasetB:
    """Run the fixed-FE campaign for one service and return its sessions.

    ``replay_cache`` and ``tier`` work as in :func:`run_dataset_a`.
    """
    vps = list(vantage_points or scenario.vantage_points)
    service = scenario.service(service_name)
    dataset = DatasetB(service=service_name, fe_name=frontend.node.name)
    emulators = []

    staggers = _fleet_staggers(scenario, vps, interval)
    executor = SessionExecutor(
        scenario,
        _dataset_b_schedule(frontend, vps, repeats, interval, staggers),
        tier=tier, replay_cache=replay_cache,
        store_payload=store_payload, run_timeout=run_timeout)
    obs_mark = obs.campaign_begin(scenario)
    for vp in vps:
        scenario.link_client_to_frontend(vp, frontend, service)
        emulator = QueryEmulator(scenario, vp, store_payload=store_payload)
        emulators.append(emulator)
        spawn(scenario.sim,
              _fixed_fe_loop(emulator, service_name, frontend, keyword,
                             repeats, interval, staggers[vp.name],
                             executor))

    scenario.sim.run(until=run_timeout)
    for emulator in emulators:
        dataset.sessions.extend(emulator.sessions)
    dataset.replay, dataset.tier = executor.finalize()
    obs.campaign_end(obs_mark, "dataset_b", scenario, dataset)
    return dataset


def _dataset_b_schedule(frontend: FrontEndServer,
                        vps: Sequence[VantagePoint], repeats: int,
                        interval: float,
                        staggers: Dict[str, float]) -> SubmissionSchedule:
    """Planned submission times of a Dataset-B run (one shared FE)."""
    schedule = SubmissionSchedule()
    fe_name = frontend.node.name
    for vp in vps:
        time = staggers[vp.name] if staggers[vp.name] > 0 else 0.0
        for _ in range(repeats):
            schedule.add(fe_name, time)
            time = time + interval
    return schedule.freeze()


def _fixed_fe_loop(emulator: QueryEmulator, service_name: str,
                   frontend: FrontEndServer, keyword: Keyword,
                   repeats: int, interval: float, stagger: float,
                   executor: SessionExecutor):
    if stagger > 0:
        yield Sleep(stagger)
    for _ in range(repeats):
        executor.submit(emulator, service_name, frontend, keyword)
        yield Sleep(interval)


def run_single_queries(scenario: Scenario, service_name: str,
                       frontend: FrontEndServer,
                       assignments: Iterable[Tuple[VantagePoint, Keyword]],
                       *, spacing: float = 1.0,
                       store_payload: bool = False) -> List[QuerySession]:
    """Issue one query per (vantage point, keyword) pair, spaced in time.

    Used by the FE-caching experiments: "all measurement nodes submit the
    same search query sequentially to a fixed FE server" (spacing > 0
    makes them sequential) and "each node submits a different search
    query".
    """
    service = scenario.service(service_name)
    sessions: List[QuerySession] = []
    # One emulator per distinct vantage point: a VP that appears in
    # several assignments (the cache-lab streams) keeps one query-id
    # counter, so every submission gets a globally unique id and the
    # ground-truth fetch/hit logs stay one record per query.
    emulators: Dict[str, QueryEmulator] = {}
    order: List[QueryEmulator] = []
    for index, (vp, keyword) in enumerate(assignments):
        scenario.link_client_to_frontend(vp, frontend, service)
        emulator = emulators.get(vp.name)
        if emulator is None:
            emulator = QueryEmulator(scenario, vp,
                                     store_payload=store_payload)
            emulators[vp.name] = emulator
            order.append(emulator)
        scenario.sim.schedule(index * spacing, emulator.submit,
                              service_name, frontend, keyword)
    scenario.sim.run()
    for emulator in order:
        sessions.extend(emulator.sessions)
    return sessions
