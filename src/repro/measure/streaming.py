"""The one campaign runner, and its bounded-memory streaming fold.

Every campaign is a time-ordered stream of
:class:`~repro.workload.generator.QueryEvent`: the paper's Datasets A
and B as closed-loop streams (:mod:`repro.measure.driver`), an
open-loop workload (:mod:`repro.workload`), or a recorded trace.
:func:`run_event_stream` is the one loop that plays a stream: it pulls
events one batch at a time, schedules each at its instant
(``sim.call_at``) and submits it through the campaign's
:class:`~repro.sim.executor.SessionExecutor`, whose isolation checks
consult a :class:`StreamingSchedule` fed from the stream itself.

The batch drivers keep every session (``DatasetA``/``DatasetB``).
:func:`run_streaming_campaign` instead folds completed sessions batch
by batch into per-service quantile sketches
(:class:`~repro.analysis.sketch.QuantileSketch`) of duration and
response bytes, counters, replay/tier accounting and, when tracing is
enabled, the obs metrics of its own capture.  It drops folded sessions
with their packet events, prunes their FE/BE log entries and prunes
the schedule behind the oldest in-flight session, so peak memory is
set by the sessions *in flight* (the arrival rate), not by the
duration.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.sketch import QuantileSketch, merge_sketches
from repro.cache import aggregate_stats
from repro.measure.emulator import QueryEmulator
from repro.obs import runtime as _obs
from repro.obs.metrics import (
    DEFAULT_BOUNDS,
    SCOPE_SIM,
    SIZE_BOUNDS,
    MetricsSnapshot,
)
from repro.sim.executor import SessionExecutor
from repro.sim.stats import ReplayStats, TierStats, sum_stats
from repro.testbed.scenario import Scenario
from repro.testbed.vantage import VantagePoint
from repro.workload.generator import QueryEvent, WorkloadSpec

__all__ = ["StreamingCampaignResult", "StreamingSchedule",
           "run_event_stream", "run_streaming_campaign"]

#: Default seconds of schedule visibility kept ahead of the clock.
DEFAULT_LOOKAHEAD = 30.0

#: Default events scheduled per simulator burst.
DEFAULT_BATCH_EVENTS = 2048

#: Compact a schedule's per-FE list when its dead prefix exceeds this.
_PRUNE_SLACK = 2048


class StreamingSchedule:
    """The per-front-end submission times of a campaign.

    :func:`run_event_stream` feeds every event's time in stream order,
    ahead of play, and a folding runner prunes behind its oldest
    in-flight session.  The executor and its replay source compare
    these times, the very floats the runner schedules, for equality
    against ``sim.now``.

    Answers are exact for any query whose window lies between the prune
    point and the fed horizon.  The runner keeps that horizon at least
    ``lookahead`` seconds ahead of the clock (the whole stream for the
    batch drivers), and :meth:`quiet`, the one window query, refuses a
    window wider than ``lookahead``, so the replay source's isolation
    checks are independent of batch size and sharding.  Sessions that
    nothing asks about may outlast it.
    """

    def __init__(self, lookahead: float = float("inf")):
        self.lookahead = lookahead
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

    def count_at(self, fe_name: str, time: float) -> int:
        """How many submissions hit ``fe_name`` at exactly ``time``."""
        times = self._times.get(fe_name)
        if not times:
            return 0
        return bisect_right(times, time) - bisect_left(times, time)

    def next_after(self, fe_name: str, time: float) -> float:
        """First submission to ``fe_name`` strictly after ``time``
        (``inf`` when none is fed)."""
        times = self._times.get(fe_name)
        if times:
            index = bisect_right(times, time)
            if index < len(times):
                return times[index]
        return float("inf")

    def quiet(self, fe_name: str, start: float, end: float) -> bool:
        """Whether no submission to ``fe_name`` falls after ``start``
        and before ``end``, a session's isolation window.

        Raises :class:`RuntimeError` when the window is wider than the
        lookahead: the schedule may not hold its submissions yet.
        """
        if end - start > self.lookahead:
            raise RuntimeError(
                "session isolation window (%.3fs) exceeds the schedule "
                "lookahead (%.3fs); raise run_streaming_campaign's "
                "lookahead" % (end - start, self.lookahead))
        return self.next_after(fe_name, start) >= end


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

        Absorbing the merged metrics into the live registry is the
        caller's job — see :func:`repro.parallel.run_streaming_sharded`.
        """
        merged = cls(spec=parts[0].spec if parts else None)
        merged.shards = len(parts)
        for part in parts:
            merged.events += part.events
            merged.sessions += part.sessions
            merged.failures += part.failures
            merged.truncated += part.truncated
        names = {name for part in parts for name in part.sketches}
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


def _batches(events: Callable[[], Iterator[QueryEvent]],
             schedule: StreamingSchedule,
             frontend_of: Callable[[QueryEvent], object], lookahead: float,
             batch_events: int) -> Iterator[List[QueryEvent]]:
    """The stream one batch at a time, with the schedule fed ahead.

    Two iterators walk the same deterministic stream: ``played`` hands
    out the batches, ``ahead`` feeds the schedule with every event of
    the batch and on to ``lookahead`` seconds past it (or to stream
    end).  No event waits in a buffer, so the stream is never held as
    events even when the schedule holds every submission time
    (``lookahead=inf``).  ``ahead`` sees each event first and rejects a
    stream that goes back in time.
    """
    played, ahead = events(), events()
    pulled = fed = 0
    fed_until = float("-inf")
    while True:
        batch = list(islice(played, batch_events))
        if not batch:
            return
        pulled += len(batch)
        horizon = batch[-1].time + lookahead
        while fed < pulled or fed_until < horizon:
            event = next(ahead, None)
            if event is None:
                break
            if event.time < fed_until:
                raise ValueError(
                    "event stream is not time-ordered: event %d is at "
                    "t=%r, after an event at t=%r"
                    % (fed, event.time, fed_until))
            schedule.feed(frontend_of(event).node.name, event.time)
            fed_until = event.time
            fed += 1
        yield batch


def run_event_stream(scenario: Scenario,
                     events: Callable[[], Iterator[QueryEvent]],
                     emulators: Dict[str, QueryEmulator],
                     frontend_of: Callable[[QueryEvent], object], *,
                     lookahead: float = float("inf"),
                     batch_events: int = DEFAULT_BATCH_EVENTS,
                     fold: Optional[Callable[[bool], Optional[float]]]
                     = None,
                     tail: float = 0.0,
                     tier: Optional[str] = None,
                     replay_cache: Optional[bool] = None
                     ) -> Tuple[int, Optional[ReplayStats],
                                Optional[TierStats]]:
    """Play one event stream; the loop behind every campaign.

    ``events`` returns a fresh iterator over the time-ordered stream on
    every call (two walk it, see :func:`_batches`).  ``emulators`` maps
    each vantage point's name to its emulator and ``frontend_of`` gives
    the front-end an event's query goes to; it is asked once when the
    schedule is fed and once at submission.  Each batch is scheduled at
    its events' own instants and run to its last one.

    ``fold(final)`` is the sink: without one, sessions stay on their
    emulators.  A fold runs after every batch and once more after the
    drain (``final=True``), with the executor settled, and returns the
    earliest start among sessions still in flight (None when none is),
    behind which the schedule is pruned.  After the drain the clock
    runs on to ``tail`` seconds past the last submission.  ``tier`` and
    ``replay_cache`` configure the session executor.

    Returns the number of events submitted and the executor's
    ``(replay, tier)`` stats.
    """
    if batch_events < 1:
        raise ValueError("batch_events must be >= 1")
    if lookahead <= 0.0:
        raise ValueError("lookahead must be > 0")
    schedule = StreamingSchedule(lookahead)
    executor = SessionExecutor(scenario, schedule, tier=tier,
                               replay_cache=replay_cache)
    sim = scenario.sim

    def submit(event: QueryEvent) -> None:
        executor.submit(emulators[event.vp_name], event.service,
                        frontend_of(event), event.keyword)

    def fold_sessions(final: bool) -> None:
        if fold is not None:
            # Settling reads the schedule and the ground-truth logs the
            # fold is about to prune.
            executor.settle()
            oldest = fold(final)
            schedule.prune(sim.now if oldest is None else oldest)

    submitted, last = 0, None
    for batch in _batches(events, schedule, frontend_of, lookahead,
                          batch_events):
        for event in batch:
            # Absolute-time scheduling: the submission instant must
            # equal the fed schedule time bit-for-bit (the executor
            # compares them for equality).
            sim.call_at(event.time, submit, event)
        submitted, last = submitted + len(batch), batch[-1].time
        sim.run(until=last)
        fold_sessions(final=False)
    sim.run()  # drain in-flight tails
    if last is not None:
        sim.run(until=last + tail)
    fold_sessions(final=True)
    replay, tier_stats = executor.finalize()
    return submitted, replay, tier_stats


def run_streaming_campaign(scenario: Scenario, workload, *,
                           vantage_points: Optional[
                               Sequence[VantagePoint]] = None,
                           batch_events: int = DEFAULT_BATCH_EVENTS,
                           lookahead: float = DEFAULT_LOOKAHEAD,
                           tier: Optional[str] = None,
                           replay_cache: Optional[bool] = None
                           ) -> StreamingCampaignResult:
    """Run an open-loop workload through the streaming fold.

    ``workload`` is any object with ``services`` and
    ``events_for(names)`` -- an
    :class:`~repro.workload.generator.OpenLoopWorkload`, a
    :class:`~repro.workload.trace.TraceWorkload`, or a stand-in.
    ``vantage_points`` restricts the run to a fleet subset (the shard
    worker's case); events of other VPs are skipped, their session
    draws untouched.

    ``tier`` and ``replay_cache`` behave exactly as on
    :func:`~repro.measure.driver.run_dataset_a`.  ``lookahead`` is the
    schedule visibility window; it must exceed the isolation window
    (duration + guard) of every session the replay cache records or
    replays, which :meth:`StreamingSchedule.quiet` verifies.  Sessions
    it bypasses (a lossy path, a busy front-end) may run longer.

    With tracing enabled the campaign records into its own
    :func:`repro.obs.capture`, attached as ``obs_metrics`` and then
    absorbed into the current registry.
    """
    vps = list(vantage_points or scenario.vantage_points)
    services = list(workload.services)
    if not services:
        raise ValueError("workload names no services")

    result = StreamingCampaignResult(
        spec=getattr(workload, "spec", None))
    emulators: Dict[str, QueryEmulator] = {}
    frontends: Dict[Tuple[str, str], object] = {}
    #: (service, fe name) -> (front-end, its back-end)
    servers: Dict[Tuple[str, str], tuple] = {}
    for vp in vps:
        emulators[vp.name] = QueryEmulator(scenario, vp)
        for service_name in services:
            frontend, _ = scenario.connect_default(service_name, vp)
            frontends[(service_name, vp.name)] = frontend
            servers[(service_name, frontend.node.name)] = (
                frontend, scenario.service(service_name)
                .backend_for_frontend(frontend))

    def observe_session(session) -> None:
        duration = session.completed_at - session.started_at
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
                                 bounds=DEFAULT_BOUNDS,
                                 scope=SCOPE_SIM)
            if session.failed is None:
                _obs.metrics.observe("stream.session.bytes",
                                     float(session.response_size),
                                     bounds=SIZE_BOUNDS,
                                     scope=SCOPE_SIM)
            else:
                _obs.metrics.inc("stream.failures", scope=SCOPE_SIM)

    def fold(final: bool) -> Optional[float]:
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
                frontend, backend = servers[(session.service,
                                             session.fe_name)]
                frontend.fetch_log.pop(session.query_id, None)
                frontend.static_hit_log.pop(session.query_id, None)
                backend.query_log.pop(session.query_id, None)
            emulator.sessions[:] = in_flight
        return oldest

    names = [vp.name for vp in vps]
    with _obs.capture() as captured:
        result.events, result.replay, result.tier = run_event_stream(
            scenario, lambda: workload.events_for(names), emulators,
            lambda event: frontends[(event.service, event.vp_name)],
            lookahead=lookahead, batch_events=batch_events, fold=fold,
            tier=tier, replay_cache=replay_cache)
        if captured is not None:
            _obs.metrics.inc("campaign.streaming")
    if captured is not None:
        result.obs_metrics = captured.metrics.snapshot()
        _obs.absorb(captured)
    result.content_cache = aggregate_stats(
        frontend.static_cache for frontend, _ in servers.values())
    return result
