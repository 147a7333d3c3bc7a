"""The lazy open-loop workload generator.

:class:`OpenLoopWorkload` turns a picklable :class:`WorkloadSpec` into
an ordered, *lazy* stream of :class:`QueryEvent`; nothing about the
stream is ever materialized, so a million-event workload costs the
same memory as a hundred-event one.

Determinism is the load-bearing property — a sharded campaign
(:func:`repro.parallel.run_streaming_sharded`) must see exactly the
serial stream — and rests on two seeded layers, both through
:func:`repro.sim.randomness.derive_seed`:

* **Session starts** come from one sequential arrival RNG
  (``workload/arrivals``).  Every shard replays this stream in full
  and filters to its own vantage points, so start times are identical
  by construction.
* **Session bodies** (user, service, query count, think times,
  keywords) come from a per-session RNG seeded by the session index
  (``workload/session/<n>``).  No session's draws depend on any other
  session's, so skipping or reordering sessions never perturbs the
  stream — the per-query analogue of
  :meth:`~repro.sim.randomness.RandomStreams.keyed`.

Users map onto vantage points by ``user % fleet_size``; all sessions
of a user therefore submit from one VP, which keeps per-VP query-id
counters (:class:`~repro.measure.emulator.QueryEmulator`) shard-local.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.content.keywords import Keyword
from repro.sim.randomness import derive_seed
from repro.workload.arrivals import ARRIVAL_KINDS, make_arrivals
from repro.workload.popularity import ZipfPopularity, zipf_universe

__all__ = ["OpenLoopWorkload", "QueryEvent", "WorkloadSpec"]

#: Mean queries per session (geometric, >= 1) and its hard cap.
QUERIES_PER_SESSION = 3.0
MAX_SESSION_QUERIES = 16
#: Mean think time between a session's queries (exponential), seconds.
THINK_TIME = 30.0


@dataclass(frozen=True)
class QueryEvent:
    """One query submission instant in an open-loop workload."""

    time: float
    session_id: int
    query_index: int
    user: int
    vp_name: str
    service: str
    keyword: Keyword


@dataclass(frozen=True)
class WorkloadSpec:
    """Picklable description of an open-loop workload.

    A spec plus a scenario config is everything a shard worker needs to
    regenerate the identical event stream; see the module docstring for
    the determinism contract.
    """

    seed: int = 0
    #: Size of the simulated user population.
    users: int = 10_000
    #: Campaign length in simulated seconds.
    duration: float = 3600.0
    #: Arrival process kind (see :data:`~repro.workload.arrivals.ARRIVAL_KINDS`).
    arrivals: str = "poisson"
    #: Aggregate session-arrival rate of the whole population.
    session_rate: float = 1.0
    #: Zipf skew of keyword popularity and the ranked universe size.
    alpha: float = 1.0
    keyword_count: int = 256
    #: Services each session may target (one chosen per session).
    services: Tuple[str, ...] = ("google-like",)
    #: Global cap on emitted events (None = run out the duration).
    max_events: Optional[int] = None

    def __post_init__(self):
        if self.users < 1:
            raise ValueError("users must be >= 1")
        if self.duration <= 0.0:
            raise ValueError("duration must be > 0")
        if self.arrivals not in ARRIVAL_KINDS:
            raise ValueError("arrivals must be one of %s, got %r"
                             % ("/".join(ARRIVAL_KINDS), self.arrivals))
        if self.session_rate < 0.0:
            raise ValueError("session_rate must be >= 0")
        if not self.services:
            raise ValueError("need at least one service")
        if self.max_events is not None and self.max_events < 0:
            raise ValueError("max_events must be >= 0")


class OpenLoopWorkload:
    """Lazy, deterministic event stream for one workload spec.

    ``vp_names`` must be the scenario's *full* fleet in fleet order —
    the user-to-VP mapping is position-based, so every shard must pass
    the identical list (workers rebuild it from the scenario config).
    """

    def __init__(self, spec: WorkloadSpec, vp_names: Sequence[str]):
        if not vp_names:
            raise ValueError("need at least one vantage point name")
        self.spec = spec
        self.vp_names: Tuple[str, ...] = tuple(vp_names)
        self.popularity = ZipfPopularity(
            zipf_universe(spec.seed, spec.keyword_count), spec.alpha)
        self.process = make_arrivals(spec.arrivals, spec.session_rate)

    @property
    def services(self) -> Tuple[str, ...]:
        return self.spec.services

    # ------------------------------------------------------------------
    def _expand_session(self, session_id: int,
                        start: float) -> List[QueryEvent]:
        """All query events of one session (bounded by the spec's cap).

        Every draw comes from the session's own seeded RNG, in a fixed
        order: user, service, query count, then per query think time
        and keyword.
        """
        spec = self.spec
        rng = random.Random(derive_seed(
            spec.seed, "workload/session/%d" % session_id))
        user = rng.randrange(spec.users)
        service = spec.services[rng.randrange(len(spec.services))]
        continue_p = 1.0 - 1.0 / QUERIES_PER_SESSION
        count = 1
        while count < MAX_SESSION_QUERIES \
                and rng.random() < continue_p:
            count += 1
        vp_name = self.vp_names[user % len(self.vp_names)]
        events: List[QueryEvent] = []
        time = start
        for query_index in range(count):
            if query_index > 0:
                time = time + rng.expovariate(1.0 / THINK_TIME)
                if time >= spec.duration:
                    break  # sessions truncate at the campaign horizon
            events.append(QueryEvent(
                time=time, session_id=session_id,
                query_index=query_index, user=user, vp_name=vp_name,
                service=service, keyword=self.popularity.sample(rng)))
        return events

    def events(self) -> Iterator[QueryEvent]:
        """The full event stream in global time order.

        Memory is O(active sessions): a min-heap holds only the queries
        of sessions whose start has been reached but whose think-time
        tail is still interleaving with newer sessions.
        """
        spec = self.spec
        arrival_rng = random.Random(derive_seed(spec.seed,
                                                "workload/arrivals"))
        starts = self.process.times(arrival_rng, spec.duration)
        heap: List[Tuple[float, int, int, QueryEvent]] = []
        emitted = 0
        session_id = 0
        next_start = next(starts, None)
        while heap or next_start is not None:
            if heap and (next_start is None
                         or heap[0][0] <= next_start):
                _, _, _, event = heapq.heappop(heap)
                yield event
                emitted += 1
                if spec.max_events is not None \
                        and emitted >= spec.max_events:
                    return
                continue
            for event in self._expand_session(session_id, next_start):
                heapq.heappush(heap, (event.time, event.session_id,
                                      event.query_index, event))
            session_id += 1
            next_start = next(starts, None)

    def events_for(self, vp_names) -> Iterator[QueryEvent]:
        """The stream filtered to a vantage-point subset.

        The global stream (and its ``max_events`` cap) is generated in
        full and filtered afterwards, so the union of the per-shard
        streams is exactly the serial stream.
        """
        names = frozenset(vp_names)
        for event in self.events():
            if event.vp_name in names:
                yield event
