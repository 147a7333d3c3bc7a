"""Discrete-event simulation engine.

The engine is a classic calendar queue built on :mod:`heapq`.  Events are
plain callbacks scheduled at absolute times; ties are broken by insertion
order so the simulation is fully deterministic for a fixed seed.

The engine deliberately knows nothing about networks or TCP: every other
layer (links, TCP endpoints, HTTP servers, the measurement driver) is built
on :meth:`Simulator.schedule` / :meth:`Simulator.call_at` alone.

Performance notes
-----------------
A heap entry is a plain five-element list ``[time, seq, callback, args,
state]`` and the entry itself is the event handle :meth:`Simulator.schedule`
returns: one allocation per event, no wrapper object, and heap ordering
uses C-level element-wise comparison (``seq`` is unique, so comparisons
never reach the callback).  The trailing ``state`` element is the
cancellation cell — :meth:`Simulator.cancel` flips it, and the entry is
skipped when it reaches the head (lazy deletion).  TCP retransmit timers
are scheduled-then-cancelled on nearly every ACK, so cancelled entries
are drained in batches at the head and, when they exceed
:data:`COMPACT_THRESHOLD` *and* outnumber live entries, a compaction
pass rebuilds the heap without them.

Example
-------
>>> sim = Simulator()
>>> fired = []
>>> _ = sim.schedule(1.5, fired.append, "a")
>>> _ = sim.schedule(0.5, fired.append, "b")
>>> sim.run()
>>> fired
['b', 'a']
>>> sim.now
1.5
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional

_heappush = heapq.heappush
_heappop = heapq.heappop

#: Minimum number of lazily-cancelled queue entries before a compaction
#: pass is considered (it also requires cancelled > live, see
#: :meth:`Simulator._compact_if_worthwhile`).
COMPACT_THRESHOLD = 512

#: Values of the entry's trailing state element.
_PENDING, _CANCELLED, _EXECUTED = 0, 1, 2

#: Entry layout: ``entry[_STATE]`` is the cancellation cell.
_STATE = 4

#: An event handle is the heap entry itself — a plain list
#: ``[time, seq, callback, args, state]``.  Treat it as opaque: cancel
#: through :meth:`Simulator.cancel`.  Kept as a named alias for
#: annotations.
EventHandle = list


class SimulationError(Exception):
    """Base class for errors raised by the simulation engine."""


class SchedulingError(SimulationError):
    """Raised when an event is scheduled in the past or on a dead engine."""


class Simulator:
    """A deterministic discrete-event simulator.

    Parameters
    ----------
    start_time:
        Initial clock value in seconds (default 0.0).

    Notes
    -----
    * Events scheduled for identical times fire in scheduling order.
    * Callbacks may schedule further events, including zero-delay ones.
    * The clock never moves backwards; scheduling in the past raises
      :class:`SchedulingError`.
    """

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        self._queue: List[EventHandle] = []
        self._seq = 0
        self._running = False
        self._processed = 0
        self._cancelled = 0  # cancelled entries still sitting in the queue
        #: Heap compaction count (plain attribute: the observability
        #: layer reads it post-run, keeping the hot path import-free).
        self.compactions = 0

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (cancelled events excluded).

        Updated when :meth:`run` returns (the dispatch loop tallies
        locally).
        """
        return self._processed

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., Any],
                 *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        Returns the event handle; pass it to :meth:`cancel` to prevent
        the event from firing.
        """
        # Scheduling is the single hottest call in a campaign (every
        # packet hop, timer arm, and process resume goes through it):
        # one list literal, no helper calls.
        if delay < 0:
            raise SchedulingError("cannot schedule %r s in the past" % delay)
        if not callable(callback):
            raise TypeError("callback must be callable, got %r" % (callback,))
        seq = self._seq
        self._seq = seq + 1
        entry = [self._now + delay, seq, callback, args, _PENDING]
        _heappush(self._queue, entry)
        return entry

    def call_at(self, time: float, callback: Callable[..., Any],
                *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulation ``time``."""
        if time < self._now:
            raise SchedulingError(
                "cannot schedule at t=%r; clock is already at t=%r"
                % (time, self._now))
        if not callable(callback):
            raise TypeError("callback must be callable, got %r" % (callback,))
        seq = self._seq
        self._seq = seq + 1
        entry = [float(time), seq, callback, args, _PENDING]
        _heappush(self._queue, entry)
        return entry

    def schedule_timeline(self, start: float,
                          timeline) -> List[EventHandle]:
        """Bulk-inject a pre-computed event timeline shifted to ``start``.

        ``timeline`` is an iterable of ``(offset, callback, args)``
        tuples; each event fires at the absolute time ``start + offset``
        (``offset`` >= 0, in seconds).  Events are enqueued in iteration
        order, so same-time entries keep the timeline's relative order
        against each other — though not against events already pending
        for the same instant, which hold earlier sequence numbers.

        This is the injection primitive of the session-replay cache
        (:mod:`repro.sim.replay`): a cached session timeline recorded
        relative to one start time is replayed against another with a
        single call instead of re-simulating the packet exchange.
        Returns the event handles in timeline order.
        """
        handles: List[EventHandle] = []
        now = self._now
        for offset, callback, args in timeline:
            time = start + offset
            if time < now:
                raise SchedulingError(
                    "timeline event at t=%r is in the past (clock at "
                    "t=%r)" % (time, now))
            if not callable(callback):
                raise TypeError("callback must be callable, got %r"
                                % (callback,))
            seq = self._seq
            self._seq = seq + 1
            entry = [time, seq, callback, tuple(args), _PENDING]
            _heappush(self._queue, entry)
            handles.append(entry)
        return handles

    def cancel(self, handle: EventHandle) -> bool:
        """Prevent a scheduled event from firing.

        O(1) lazy deletion: the entry is flagged and skipped when it
        reaches the head of the queue.  Idempotent; cancelling an event
        that already fired is a no-op.  Returns ``True`` if this call
        cancelled the event, ``False`` if it had already fired or been
        cancelled.
        """
        if handle[_STATE] == _PENDING:
            handle[_STATE] = _CANCELLED
            self._cancelled += 1
            self._compact_if_worthwhile()
            return True
        return False

    # ------------------------------------------------------------------
    # cancelled-entry hygiene
    # ------------------------------------------------------------------
    def _compact_if_worthwhile(self) -> None:
        """Rebuild the heap without cancelled entries when they dominate.

        Triggered from :meth:`cancel`; a rebuild is O(n) so it only runs
        once cancelled entries both exceed a fixed threshold and
        outnumber the live ones, which amortises to O(1) per cancel.
        """
        if (self._cancelled > COMPACT_THRESHOLD
                and self._cancelled * 2 > len(self._queue)):
            # In-place (slice assignment + heapify) so that the dispatch
            # loop's local alias of the queue stays valid when a callback
            # triggers compaction mid-run.
            self._queue[:] = [entry for entry in self._queue
                              if not entry[_STATE]]
            heapq.heapify(self._queue)
            self._cancelled = 0
            self.compactions += 1

    def _drain_cancelled_head(self) -> None:
        """Pop the batch of cancelled entries at the head of the queue."""
        queue = self._queue
        pop = _heappop
        while queue and queue[0][_STATE]:
            pop(queue)
            self._cancelled -= 1

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> None:
        """Run events until the queue drains or ``until`` is reached.

        When ``until`` is given, the clock is advanced to exactly
        ``until`` even if the last event fired earlier, mirroring how a
        wall clock would behave during an idle tail.
        """
        if self._running:
            raise SimulationError("simulator is not re-entrant")
        self._running = True
        executed = 0
        queue = self._queue
        pop = _heappop
        try:
            if until is None:
                # Run-to-drain fast path: no per-event bound checks.
                # This is the loop almost every campaign sits in.
                while queue:
                    entry = pop(queue)
                    if entry[4]:
                        self._cancelled -= 1
                        continue
                    self._now = entry[0]
                    entry[4] = _EXECUTED
                    entry[2](*entry[3])
                    executed += 1
            else:
                while queue:
                    entry = pop(queue)
                    if entry[4]:
                        self._cancelled -= 1
                        continue
                    time = entry[0]
                    if time > until:
                        # Past the window: put the entry back (same seq,
                        # so ordering is preserved).  At most once per
                        # run().
                        _heappush(queue, entry)
                        break
                    self._now = time
                    entry[4] = _EXECUTED
                    entry[2](*entry[3])
                    executed += 1
        finally:
            self._running = False
            self._processed += executed
        if until is not None and until > self._now:
            # Every live event left is later than ``until``.
            self._drain_cancelled_head()
            self._now = until
