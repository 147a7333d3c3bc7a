"""The recorded timeline source: the replay cache behind the executor.

The :class:`~repro.sim.executor.SessionExecutor` asks one
:class:`SessionReplayManager` per campaign about every packet-tier
session — on every tier: admission bypasses, demoted strata and gate
validation samples alike.  The source decides, per submission, between

* **bypass** — an admission rule failed; simulate normally and count
  the reason;
* **miss** — admissible but no validated timeline yet; simulate
  normally and, once the session completes, either record its timeline
  (no entry existed) or compare it against the existing unvalidated
  entry (validation on first reuse);
* **hit** — a validated timeline exists and the isolation window holds;
  the executor materializes the timeline time-shifted to now instead of
  simulating.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Optional, Tuple

from repro.sim.replay.cache import ReplayCache
from repro.sim.replay.fingerprint import session_key, window_fits
from repro.sim.replay.timeline import (
    RecordedTimeline,
    observable_tuple,
    predicted_tuple,
    record_timeline,
)
from repro.sim.stats import ReplayStats

if TYPE_CHECKING:
    from repro.measure.streaming import StreamingSchedule

#: ``REPRO_REPLAY_CACHE`` values that turn the cache off / leave it on.
_CACHE_OFF = ("0", "off", "false", "no")
_CACHE_ON = ("", "1", "on", "true", "yes")


def replay_cache_enabled() -> bool:
    """Default cache policy from the ``REPRO_REPLAY_CACHE`` env var.

    Unset, empty, ``1``/``on``/``true``/``yes`` enable the cache;
    ``0``/``off``/``false``/``no`` disable it (the CLI's
    ``--no-replay-cache`` flag sets ``0``).  Any other value raises
    :class:`ValueError`.
    """
    value = os.environ.get("REPRO_REPLAY_CACHE", "").strip().lower()
    if value in _CACHE_OFF:
        return False
    if value in _CACHE_ON:
        return True
    raise ValueError("REPRO_REPLAY_CACHE must be one of %s, got %r"
                     % ("/".join(_CACHE_ON[1:] + _CACHE_OFF), value))


class _Pending:
    """An admissible simulated session awaiting completion: recorded
    when ``entry`` is None, else compared against it."""

    __slots__ = ("key", "frontend", "backend", "guard", "entry",
                 "tcp_host")

    def __init__(self, key: tuple, frontend, backend, guard: float,
                 entry: Optional[RecordedTimeline], tcp_host):
        self.key = key
        self.frontend = frontend
        self.backend = backend
        self.guard = guard
        self.entry = entry
        self.tcp_host = tcp_host


class SessionReplayManager:
    """Per-campaign replay-cache source."""

    def __init__(self, scenario, schedule: StreamingSchedule):
        self.scenario = scenario
        self.schedule = schedule
        self.cache = ReplayCache()
        self.stats = ReplayStats()

    # ------------------------------------------------------------------
    def route(self, emulator, session, frontend, guard: float,
              reason: Optional[str]
              ) -> Tuple[Optional[RecordedTimeline], Optional[_Pending]]:
        """Route one opened packet-tier session.

        ``reason`` is the failed shared admission rule, or None.
        Returns ``(timeline, None)`` on a hit, else ``(None, pending)``
        to simulate: ``pending`` is the record/validate work to settle
        once the session completes, None for a bypass.
        """
        if reason is not None:
            self.stats.bypass(reason)
            return None, None
        now = self.scenario.sim.now
        key = session_key(self.scenario, session.service, frontend,
                          session.vp_name, session.keyword,
                          session.query_id, now)
        entry = self.cache.get(key)
        if entry is not None:
            # Validating and replaying both need the full isolation
            # window ahead of us.
            end = now + entry.duration + entry.guard
            if not window_fits(now, end) \
                    or not self.schedule.quiet(frontend.node.name, now,
                                               end):
                self.stats.bypass("window")
                return None, None
            if entry.validated:
                self.stats.hits += 1
                return entry, None
        self.stats.misses += 1
        backend = self.scenario.service(session.service) \
            .backend_for_frontend(frontend)
        return None, _Pending(key, frontend, backend, guard, entry,
                              emulator.tcp_host)

    def settle(self, session, pending: _Pending) -> None:
        """Record or validate one completed admissible session."""
        fetch = pending.frontend.fetch_log.get(session.query_id)
        query = pending.backend.query_log.get(session.query_id)
        complete = (session.failed is None
                    and fetch is not None
                    and fetch.completed_at is not None
                    and query is not None
                    and query.completed_time is not None)
        if pending.entry is not None:
            self._validate(session, pending, complete, fetch, query)
            return
        if not complete:
            return
        if any(e.retransmit for e in session.events):
            # A retransmission on a loss-free path means a queue
            # overflowed or an RTO misfired -- state the key can't see.
            return
        end = session.completed_at + pending.guard
        if not window_fits(session.started_at, end):
            return
        if not self.schedule.quiet(session.fe_name, session.started_at,
                                   end):
            return
        timeline = record_timeline(session, pending.guard, fetch, query)
        if timeline is None:
            return
        self.cache.put(pending.key, timeline)
        self.stats.recorded += 1

    def expire(self, pending: _Pending) -> None:
        """A session still incomplete at the end of the run (timeout,
        failure) is simply not recorded."""

    def finalize(self) -> ReplayStats:
        """The run's stats; the executor calls this once per campaign,
        after settling and expiring every pending session."""
        self.stats.evictions = self.cache.evictions
        return self.stats

    # ------------------------------------------------------------------
    def _validate(self, session, pending: _Pending, complete: bool,
                  fetch, query) -> None:
        if not complete:
            # The reuse failed outright where the recording succeeded;
            # the key clearly doesn't determine the outcome here.
            self.stats.validation_failures += 1
            self.cache.pop(pending.key)
            return
        actual = observable_tuple(session, fetch, query)
        predicted = predicted_tuple(
            pending.entry, session.started_at, session.vp_name,
            session.fe_name, session.local_port, pending.tcp_host)
        if actual == predicted:
            pending.entry.validated = True
            self.stats.validations += 1
            return
        self.stats.validation_failures += 1
        # Re-record from the fresh session (the original recording may
        # have caught a warm-up artifact); the entry stays unvalidated.
        self.cache.pop(pending.key)
        timeline = record_timeline(session, pending.guard, fetch, query)
        if timeline is not None \
                and not any(e.retransmit for e in session.events):
            self.cache.put(pending.key, timeline)
            self.stats.recorded += 1
