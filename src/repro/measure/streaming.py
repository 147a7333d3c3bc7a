"""Bounded-memory streaming campaign runner.

The classic drivers (:mod:`repro.measure.driver`) materialize one
emulator *and one result record per query* — fine for the paper's
hundreds of sessions, hopeless for an open-loop workload with millions.
:func:`run_streaming_campaign` consumes a lazy event stream
(:mod:`repro.workload`) batch by batch and folds every completed
session into aggregates the moment it finishes:

* online percentile sketches (:class:`~repro.analysis.sketch.QuantileSketch`)
  per service for session duration and response bytes;
* counters (events, sessions, failures) plus the usual replay/tier
  accounting;
* sim-scope obs metrics when tracing is enabled.

Nothing grows with the event count: folded sessions are dropped, their
packet-capture slices trimmed, their ground-truth FE/BE log entries
pruned, and the submission schedule is a sliding window
(:class:`StreamingSchedule`).  Peak memory is set by the number of
sessions *in flight*, i.e. by the arrival rate — not the duration.

The runner reuses the batch drivers' session executor
(:class:`~repro.sim.executor.SessionExecutor`), so a streaming run's
per-session behavior is identical to the equivalent batch campaign's;
only the bookkeeping differs.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.sketch import QuantileSketch, merge_sketches
from repro.cache import aggregate_stats
from repro.measure.emulator import QueryEmulator
from repro.obs import runtime as _obs
from repro.obs.metrics import SCOPE_SIM, MetricsSnapshot
from repro.sim.executor import SessionExecutor, isolation_guard
from repro.sim.stats import ReplayStats, TierStats, sum_stats
from repro.testbed.scenario import Scenario
from repro.testbed.vantage import VantagePoint
from repro.workload.generator import QueryEvent, WorkloadSpec

__all__ = ["StreamingCampaignResult", "StreamingSchedule",
           "run_streaming_campaign"]

#: Histogram bounds mirrored from repro.obs.record (seconds / bytes).
DURATION_BOUNDS = (0.05, 0.1, 0.2, 0.3, 0.5, 0.75, 1.0, 1.5, 2.0,
                   5.0)  # simlint: unit[s]
SIZE_BOUNDS = (4_096, 16_384, 32_768, 65_536, 131_072,
               262_144)  # simlint: unit[bytes]

#: Default seconds of schedule visibility kept ahead of the clock.
DEFAULT_LOOKAHEAD = 30.0  # simlint: unit[s]

#: Default events scheduled per simulator burst.
DEFAULT_BATCH_EVENTS = 2048

#: Compact a schedule's per-FE list when its dead prefix exceeds this.
_PRUNE_SLACK = 2048


class StreamingSchedule:
    """A sliding-window :class:`~repro.sim.replay.SubmissionSchedule`.

    The batch drivers precompute every submission time; a streaming
    campaign cannot (the stream may be unbounded), so the runner feeds
    times in stream order as events are fetched and prunes behind the
    oldest in-flight session.  Duck-types the two methods the session
    executor and its replay cache consult.

    Contract: ``count_at``/``next_after`` answers are exact for any
    query whose relevant window lies between the prune point and the
    fed horizon.  The runner maintains a fed horizon at least
    ``lookahead`` seconds ahead of the clock and verifies at fold time
    that every session's isolation window (duration + guard) fits
    inside it, so executor comparisons (`next_after(fe, t) < end`) are
    independent of batch size and sharding.
    """

    def __init__(self):
        self._times: Dict[str, List[float]] = {}

    def feed(self, fe_name: str, time: float) -> None:
        """Append one planned submission (stream order = sorted)."""
        self._times.setdefault(fe_name, []).append(time)

    def prune(self, before: float) -> None:
        """Forget times earlier than ``before`` (amortized, batched)."""
        for fe_name, times in self._times.items():
            low = bisect_left(times, before)
            if low > _PRUNE_SLACK:
                self._times[fe_name] = times[low:]

    # -- the SubmissionSchedule duck-type ------------------------------
    def count_at(self, fe_name: str, time: float) -> int:
        times = self._times.get(fe_name)
        if not times:
            return 0
        return bisect_right(times, time) - bisect_left(times, time)

    def next_after(self, fe_name: str, time: float) -> float:
        times = self._times.get(fe_name)
        if times:
            index = bisect_right(times, time)
            if index < len(times):
                return times[index]
        return float("inf")


@dataclass
class StreamingCampaignResult:
    """Aggregate outcome of a streaming campaign (no per-query data)."""

    spec: Optional[WorkloadSpec] = None
    #: Queries submitted / sessions folded / failures among them.
    events: int = 0
    sessions: int = 0
    failures: int = 0
    #: Sessions still incomplete when the simulation drained.
    truncated: int = 0
    shards: int = 1
    replay: Optional[ReplayStats] = None
    tier: Optional[TierStats] = None
    #: name -> sketch; names are "duration/<service>" (seconds) and
    #: "bytes/<service>" (response bytes).
    sketches: Dict[str, QuantileSketch] = field(default_factory=dict)
    obs_metrics: Optional[MetricsSnapshot] = None
    #: Aggregated finite content-cache counters over every front-end
    #: the campaign touched (None when the scenario runs the degenerate
    #: infinite cache — keeps default fingerprints unchanged).  See
    #: :func:`repro.cache.tier.aggregate_stats` for the keys.
    content_cache: Optional[Dict[str, int]] = None

    def sketch(self, name: str) -> QuantileSketch:
        sketch = self.sketches.get(name)
        if sketch is None:
            sketch = self.sketches[name] = QuantileSketch()
        return sketch

    def quantile(self, name: str, q: float) -> Optional[float]:
        sketch = self.sketches.get(name)
        return sketch.quantile(q) if sketch is not None else None

    def hit_rate(self) -> Optional[float]:
        """Replay-cache hit fraction of submitted events (None = off)."""
        if self.replay is None or self.events == 0:
            return None
        return self.replay.hits / self.events

    def content_hit_rate(self) -> Optional[float]:
        """FE static-cache hit fraction (None without finite caches)."""
        stats = self.content_cache
        if not stats:
            return None
        lookups = stats.get("fe_hits", 0) + stats.get("fe_misses", 0)
        if lookups == 0:
            return None
        return stats["fe_hits"] / lookups

    def fingerprint(self) -> str:
        """SHA-256 over the deterministic aggregate state.

        Covers the counters, every sketch, and (when observability was
        enabled) the canonical sim-scope metric records — exactly the
        data contracted to be bit-identical between a serial run and
        any sharding of it.  Host-scope metrics and replay/tier *work*
        counters are excluded: they describe how the answer was
        computed, not the answer.
        """
        digest = hashlib.sha256()
        digest.update(b"streaming-campaign/v1\n")
        digest.update(("events=%d sessions=%d failures=%d truncated=%d\n"
                       % (self.events, self.sessions, self.failures,
                          self.truncated)).encode())
        for name in sorted(self.sketches):
            digest.update(("sketch %s %s\n"
                           % (name, self.sketches[name].fingerprint()))
                          .encode())
        if self.content_cache is not None:
            digest.update(b"content-cache ")
            digest.update(json.dumps(self.content_cache,
                                     sort_keys=True).encode())
            digest.update(b"\n")
        if self.obs_metrics is not None:
            records = self.obs_metrics.scoped(SCOPE_SIM).as_records()
            digest.update(json.dumps(records, sort_keys=True).encode())
        return digest.hexdigest()

    @classmethod
    def merged(cls, parts: Sequence["StreamingCampaignResult"]
               ) -> "StreamingCampaignResult":
        """Exact, order-independent merge of per-shard results.

        Observability handling (rollback/absorb of the merged delta)
        is the caller's job — see
        :func:`repro.parallel.run_streaming_sharded`.
        """
        merged = cls(spec=parts[0].spec if parts else None)
        merged.shards = len(parts)
        names: List[str] = []
        for part in parts:
            merged.events += part.events
            merged.sessions += part.sessions
            merged.failures += part.failures
            merged.truncated += part.truncated
            for name in part.sketches:
                if name not in names:
                    names.append(name)
        merged.replay = sum_stats(part.replay for part in parts)
        merged.tier = sum_stats(part.tier for part in parts)
        for name in sorted(names):
            merged.sketches[name] = merge_sketches(
                part.sketches[name] for part in parts
                if name in part.sketches)
        cache_parts = [part.content_cache for part in parts
                       if part.content_cache is not None]
        if cache_parts:
            totals: Dict[str, int] = {}
            for stats in cache_parts:
                for key, value in stats.items():
                    totals[key] = totals.get(key, 0) + value
            merged.content_cache = totals
        snapshots = [part.obs_metrics for part in parts
                     if part.obs_metrics is not None]
        if snapshots:
            merged.obs_metrics = MetricsSnapshot.merge(snapshots)
        return merged


class _EventFeed:
    """Pulls the filtered stream, feeding the schedule ahead of play."""

    def __init__(self, events: Iterator[QueryEvent],
                 schedule: StreamingSchedule,
                 fe_names: Dict[Tuple[str, str], str]):
        self._events = events
        self._schedule = schedule
        self._fe_names = fe_names
        self._buffer: "deque[QueryEvent]" = deque()
        self.exhausted = False
        self.fed_until = 0.0  # simlint: unit[s]

    def _pull(self) -> bool:
        event = next(self._events, None)
        if event is None:
            self.exhausted = True
            return False
        self._schedule.feed(
            self._fe_names[(event.service, event.vp_name)], event.time)
        self.fed_until = event.time
        self._buffer.append(event)
        return True

    def next_batch(self, batch_events: int,
                   lookahead: float) -> List[QueryEvent]:
        """The next batch, with the schedule fed ``lookahead`` beyond
        the batch horizon (or to stream end)."""
        while len(self._buffer) < batch_events and not self.exhausted:
            self._pull()
        if not self._buffer:
            return []
        take = min(batch_events, len(self._buffer))
        batch = [self._buffer.popleft() for _ in range(take)]
        horizon = batch[-1].time
        while not self.exhausted \
                and self.fed_until < horizon + lookahead:
            self._pull()
        return batch


def run_streaming_campaign(scenario: Scenario, workload, *,
                           vantage_points: Optional[
                               Sequence[VantagePoint]] = None,
                           batch_events: int = DEFAULT_BATCH_EVENTS,
                           lookahead: float = DEFAULT_LOOKAHEAD,
                           tier: Optional[str] = None,
                           replay_cache=None) -> StreamingCampaignResult:
    """Run an open-loop workload through the streaming folder.

    ``workload`` is any object with ``services``, ``events()`` and
    ``events_for(names)`` — an
    :class:`~repro.workload.generator.OpenLoopWorkload`, a
    :class:`~repro.workload.trace.TraceWorkload`, or a stand-in.
    ``vantage_points`` restricts the run to a fleet subset (the shard
    worker's case); events of other VPs are skipped, their session
    draws untouched.

    ``tier`` and ``replay_cache`` behave exactly as on
    :func:`~repro.measure.driver.run_dataset_a`.  ``lookahead`` is the
    schedule visibility window; it must exceed every session's
    isolation window (duration + guard), which the runner verifies as
    sessions fold.
    """
    if batch_events < 1:
        raise ValueError("batch_events must be >= 1")
    if lookahead <= 0.0:
        raise ValueError("lookahead must be > 0")
    vps = list(vantage_points or scenario.vantage_points)
    services = list(workload.services)
    if not services:
        raise ValueError("workload names no services")

    result = StreamingCampaignResult(
        spec=getattr(workload, "spec", None))
    schedule = StreamingSchedule()
    executor = SessionExecutor(scenario, schedule, tier=tier,
                               replay_cache=replay_cache)

    emulators: Dict[str, QueryEmulator] = {}
    frontends: Dict[Tuple[str, str], object] = {}
    fe_names: Dict[Tuple[str, str], str] = {}
    fe_by_name: Dict[str, object] = {}
    backends: Dict[Tuple[str, str], object] = {}
    for vp in vps:
        emulators[vp.name] = QueryEmulator(scenario, vp)
        for service_name in services:
            frontend, _ = scenario.connect_default(service_name, vp)
            key = (service_name, vp.name)
            frontends[key] = frontend
            fe_names[key] = frontend.node.name
            fe_by_name[frontend.node.name] = frontend
            backends[(service_name, frontend.node.name)] = \
                scenario.service(service_name) \
                .backend_for_frontend(frontend)

    metrics_base = _obs.metrics.snapshot() if _obs.enabled else None

    def submit(event: QueryEvent) -> None:
        result.events += 1
        executor.submit(emulators[event.vp_name], event.service,
                        frontends[(event.service, event.vp_name)],
                        event.keyword)

    def observe_session(session) -> None:
        duration = session.completed_at - session.started_at
        guard = isolation_guard(session.path_rtt)
        if duration + guard > lookahead:
            raise RuntimeError(
                "session isolation window (%.3fs) exceeds the schedule "
                "lookahead (%.3fs); raise run_streaming_campaign's "
                "lookahead" % (duration + guard, lookahead))
        result.sessions += 1
        if session.failed is not None:
            result.failures += 1
        else:
            result.sketch("duration/%s" % session.service) \
                .observe(duration)
            result.sketch("bytes/%s" % session.service) \
                .observe(float(session.response_size))
        if _obs.enabled:
            _obs.metrics.inc("stream.sessions", scope=SCOPE_SIM)
            _obs.metrics.observe("stream.session.duration", duration,
                                 bounds=DURATION_BOUNDS,
                                 scope=SCOPE_SIM)
            if session.failed is None:
                _obs.metrics.observe("stream.session.bytes",
                                     float(session.response_size),
                                     bounds=SIZE_BOUNDS,
                                     scope=SCOPE_SIM)
            else:
                _obs.metrics.inc("stream.failures", scope=SCOPE_SIM)

    def fold(final: bool = False) -> None:
        # Settle the executor's completed sessions first: settling
        # consults the schedule and the ground-truth logs this fold is
        # about to prune.
        executor.settle()
        now = scenario.sim.now
        oldest = None  # earliest start among in-flight sessions
        for emulator in emulators.values():
            if not emulator.sessions:
                continue
            in_flight = []
            for session in emulator.sessions:
                if session.completed_at is None:
                    if final:
                        result.truncated += 1
                        continue
                    in_flight.append(session)
                    if oldest is None or session.started_at < oldest:
                        oldest = session.started_at
                    continue
                observe_session(session)
                frontend = fe_by_name.get(session.fe_name)
                if frontend is not None:
                    frontend.fetch_log.pop(session.query_id, None)
                    frontend.static_hit_log.pop(session.query_id, None)
                backend = backends.get((session.service,
                                        session.fe_name))
                if backend is not None:
                    backend.query_log.pop(session.query_id, None)
            emulator.sessions[:] = in_flight
            cut = min((s.started_at for s in in_flight), default=now)
            emulator.drop_capture_before(cut)
        schedule.prune(oldest if oldest is not None else now)

    feed = _EventFeed(
        workload.events_for([vp.name for vp in vps]), schedule,
        fe_names)
    sim = scenario.sim
    while True:
        batch = feed.next_batch(batch_events, lookahead)
        if not batch:
            break
        horizon = batch[-1].time
        for event in batch:
            # Absolute-time scheduling: the submission instant must
            # equal the fed schedule time bit-for-bit (the executor
            # compares them for equality).
            sim.call_at(event.time, submit, event)
        sim.run(until=horizon)
        fold()
    sim.run()  # drain in-flight tails
    fold(final=True)

    result.replay, result.tier = executor.finalize()
    result.content_cache = aggregate_stats(
        fe.static_cache for fe in fe_by_name.values())
    if metrics_base is not None:
        if _obs.enabled:
            _obs.metrics.inc("campaign.streaming")
        result.obs_metrics = \
            _obs.metrics.snapshot().subtract(metrics_base)
    return result
