"""The session executor: one admission chain and one injection path.

The paper splits a query's time at the Figure-2 landmarks into Tstatic,
Tdynamic and Tfetch = Tproc + C·RTTbe.  Both fast paths of the
simulator produce exactly that landmark timeline and skip the packet
engine: the analytic tier predicts it, the replay cache recalls it.
One :class:`SessionExecutor` per campaign owns everything they share:

* admission — the campaign, path and temporal rules, walked once per
  submission in a fixed precedence, with the analytic tier's own rules
  slotted in;
* the live-FE tracker those isolation rules consult;
* one queue of simulated sessions awaiting settlement;
* :meth:`SessionExecutor.materialize`, the only code that injects a
  session without simulating it.

Two timeline sources sit behind it, asked in order.  The tier policy
(:class:`~repro.sim.analytic.manager.TieredSessionManager`, tiers
``analytic``/``auto``) serves admitted sessions from the closed-form
model and sends the rest, validation samples included, to the packet
tier.  The recorded source
(:class:`~repro.sim.replay.manager.SessionReplayManager`) serves
packet-tier sessions from the replay cache, on every tier; whatever it
cannot serve is simulated packet by packet.  Both sources speak one
protocol: ``route(...) -> (timeline, pending)``, ``settle(session,
pending)``, ``expire(pending)`` and ``finalize() -> stats``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.measure.session import QuerySession
from repro.sim.analytic.manager import TieredSessionManager, tier_mode
from repro.sim.replay.admission import (
    campaign_bypass_reason,
    path_bypass_reason,
)
from repro.sim.replay.cache import ReplayCache
from repro.sim.replay.manager import SessionReplayManager, replay_cache_enabled
from repro.sim.replay.timeline import RecordedTimeline, materialize_events
from repro.sim.stats import ReplayStats, TierStats

if TYPE_CHECKING:
    from repro.measure.streaming import StreamingSchedule

#: Quiet time a session needs on its front-end beyond ``completed_at``:
#: a constant floor plus a few client-FE round trips, covering the FIN
#: exchange that trails the response (~1.5 RTT).  Also the spacing the
#: isolation checks demand before the next submission to the same FE.
GUARD_FLOOR = 0.2
GUARD_RTT_MULTIPLE = 2.0


def isolation_guard(path_rtt: float) -> float:
    """The guard of a session whose client-FE round trip is
    ``path_rtt`` seconds."""
    return GUARD_FLOOR + GUARD_RTT_MULTIPLE * path_rtt


class SessionExecutor:
    """Per-campaign session execution behind the campaign runner.

    ``schedule`` holds the campaign's submission times per front-end
    (see :func:`repro.measure.streaming.run_event_stream`).  ``tier``
    follows ``REPRO_TIER`` when None (see
    :func:`~repro.sim.analytic.manager.tier_mode`); modes other than
    ``packet`` add the tier policy.  ``replay_cache`` follows
    ``REPRO_REPLAY_CACHE`` when None; ``False`` turns the recorded
    source off, ``True`` gives it a fresh cache, and a
    :class:`~repro.sim.replay.cache.ReplayCache` instance is used as-is
    (letting successive campaigns on the *same scenario* share warmed
    timelines).
    """

    def __init__(self, scenario, schedule: StreamingSchedule, *,
                 tier: Optional[str] = None, replay_cache=None):
        self.scenario = scenario
        self.schedule = schedule
        mode = tier_mode(tier)
        self.policy: Optional[TieredSessionManager] = None
        if mode != "packet":
            self.policy = TieredSessionManager(scenario, mode=mode)
        if replay_cache is None:
            replay_cache = replay_cache_enabled()
        self.recorded: Optional[SessionReplayManager] = None
        if replay_cache is not False:
            self.recorded = SessionReplayManager(
                scenario, schedule,
                cache=(replay_cache if isinstance(replay_cache, ReplayCache)
                       else None))
        self._campaign_reason = campaign_bypass_reason(scenario)
        #: triple -> (tier path reason, shared path reason)
        self._path_reasons: Dict[tuple, Tuple[Optional[str],
                                              Optional[str]]] = {}
        #: fe name -> [(session, guard)] of sessions submitted to it.
        self._live: Dict[str, List[Tuple[QuerySession, float]]] = {}
        #: (session, source, pending) in submission order.
        self._pending: List[tuple] = []

    # ------------------------------------------------------------------
    def submit(self, emulator, service_name: str, frontend,
               keyword) -> QuerySession:
        """Submit one query through the sources, simulating it when
        neither serves it."""
        policy, recorded = self.policy, self.recorded
        if policy is None and recorded is None:
            return emulator.submit(service_name, frontend, keyword)
        self.settle()
        tier_reason, reason = self._admission(emulator, service_name,
                                              frontend)
        scenario = self.scenario
        guard = isolation_guard(scenario.client_fe_rtt(
            emulator.vp, frontend, scenario.service(service_name)))
        timeline = validation = pending = None
        if policy is not None:
            timeline, validation = policy.route(
                emulator, service_name, frontend, keyword, guard,
                tier_reason)
        if timeline is None and recorded is not None:
            timeline, pending = recorded.route(
                emulator, service_name, frontend, keyword, guard, reason)
        if timeline is not None:
            session = self.materialize(emulator, service_name, frontend,
                                       keyword, timeline)
        else:
            session = emulator.submit(service_name, frontend, keyword)
        self._live.setdefault(frontend.node.name, []) \
            .append((session, guard))
        if validation is not None:
            self._pending.append((session, policy, validation))
        if pending is not None:
            self._pending.append((session, recorded, pending))
        return session

    def settle(self) -> None:
        """Settle every pending session that has completed, in
        submission order.  Settling reads the FE/BE ground-truth logs,
        so streaming runners call this before pruning them."""
        still = []
        for entry in self._pending:
            session, source, pending = entry
            if session.completed_at is None:
                still.append(entry)
            else:
                source.settle(session, pending)
        self._pending = still

    def finalize(self) -> Tuple[Optional[ReplayStats], Optional[TierStats]]:
        """Settle what completed, expire what did not, and return the
        run's ``(replay, tier)`` stats, None for an absent source.

        Call once, after ``sim.run()`` returns.
        """
        self.settle()
        for _session, source, pending in self._pending:
            source.expire(pending)
        self._pending = []
        replay = self.recorded.finalize() \
            if self.recorded is not None else None
        tier = self.policy.finalize() if self.policy is not None else None
        return replay, tier

    # ------------------------------------------------------------------
    def materialize(self, emulator, service_name: str, frontend, keyword,
                    timeline: RecordedTimeline) -> QuerySession:
        """Inject one session from its landmark timeline, shifted to
        now, without packet simulation.

        Replicates every observable side effect of a simulated submit
        in its exact order: the keyword registration, the query id, the
        burned ephemeral port, the FE/BE ground-truth records at the
        forwarding instant, and the capture events at completion.  The
        simflow parity rules (EFF001-EFF003) are rooted here.
        """
        scenario = self.scenario
        sim = scenario.sim
        start = sim.now
        service = scenario.service(service_name)
        service.register_keywords([keyword])
        query_id = emulator.next_query_id()
        session = QuerySession(
            query_id=query_id,
            service=service_name,
            vp_name=emulator.vp.name,
            fe_name=frontend.node.name,
            keyword=keyword,
            started_at=start,
            path_rtt=scenario.client_fe_rtt(emulator.vp, frontend,
                                            service))
        # Burn the ephemeral port the simulated connection would bind,
        # keeping the host's allocation order identical.
        session.local_port = emulator.tcp_host.reserve_port()
        emulator.sessions.append(session)
        backend = service.backend_for_frontend(frontend)

        def server_effects() -> None:
            frontend.record_replayed_fetch(
                query_id, start + timeline.forward_offset,
                start + timeline.fetch_completed_offset,
                timeline.fetch_size)
            backend.record_replayed_query(
                query_id, timeline.keyword_text,
                start + timeline.be_arrival_offset, timeline.tproc,
                timeline.be_response_size,
                start + timeline.be_completed_offset)

        def complete() -> None:
            # Runs at exactly start + duration, the instant the
            # simulated completion callback would have fired.
            session.completed_at = sim.now
            session.response_size = timeline.response_size
            session.events = materialize_events(
                timeline, start, session.vp_name, session.fe_name,
                session.local_port, emulator.tcp_host)
            emulator.capture.inject(session.events)

        sim.schedule_timeline(start, [
            (timeline.forward_offset, server_effects, ()),
            (timeline.duration, complete, ()),
        ])
        return session

    # ------------------------------------------------------------------
    def _admission(self, emulator, service_name: str, frontend
                   ) -> Tuple[Optional[str], Optional[str]]:
        """Walk the admission chain once, in precedence order.

        Returns ``(tier, shared)``: the first failed rule for the tier
        policy, and the first failed rule both sources share (the
        recorded source's verdict); None means admitted.  The chain is
        campaign, path, [analytic path], time origin, [warm-up],
        concurrent submission, busy FE; the bracketed rules are the
        tier policy's own and only ever fill ``tier``.
        """
        if self._campaign_reason is not None:
            return self._campaign_reason, self._campaign_reason
        vp_name = emulator.vp.name
        fe_name = frontend.node.name
        triple = (service_name, fe_name, vp_name)
        reasons = self._path_reasons.get(triple)
        if reasons is None:
            shared = path_bypass_reason(self.scenario, service_name,
                                        frontend, vp_name)
            tier = shared
            if tier is None and self.policy is not None:
                tier = self.policy.path_reason(service_name, frontend)
            reasons = self._path_reasons[triple] = (tier, shared)
        tier, shared = reasons
        if shared is not None:
            return shared, shared
        now = self.scenario.sim.now
        if now <= 0.0:
            # t=0 sessions overlap scenario warm-up (FE-BE pool
            # handshakes) and sit outside every positive binade.
            return tier or "time-origin", "time-origin"
        if tier is None and self.policy is not None \
                and self.policy.warming_up(service_name, frontend,
                                           vp_name, now):
            tier = "warm-up"
        if self.schedule.count_at(fe_name, now) != 1:
            shared = "concurrent-submit"
        elif self._fe_busy(fe_name, now):
            shared = "fe-busy"
        return tier or shared, shared

    def _fe_busy(self, fe_name: str, now: float) -> bool:
        live = self._live.get(fe_name)
        if not live:
            return False
        still = [(session, guard) for session, guard in live
                 if session.completed_at is None
                 or session.completed_at + guard > now]
        self._live[fe_name] = still
        return bool(still)
