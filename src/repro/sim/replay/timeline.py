"""Normalized session timelines: recording and materialization.

A recorded timeline stores a completed session's observables relative
to its start time and stripped of run-specific identifiers: packet
times become offsets, sequence/ack numbers become ISN-relative, and the
client's ephemeral port is dropped (the addressing is re-derived from
the (VP, FE) pair at materialization).  Replaying the timeline against
a new start time and a freshly allocated port then reproduces, bit for
bit, the :class:`~repro.measure.capture.PacketEvent` list and landmark
times the full simulation would have produced — initial sequence
numbers are deterministic per flow (see
:func:`repro.tcp.host.flow_isn`), so the new connection's ISNs are
computable without simulating it.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.measure.capture import PacketEvent
from repro.services.frontend import FRONTEND_PORT
from repro.tcp.host import flow_isn

#: One normalized packet: (offset, outbound, wire_size, payload_len,
#: seq_rel, ack_field, syn, fin, ack_flag, retransmit).  ``seq_rel`` is
#: relative to the sender's ISN; ``ack_field`` is relative to the
#: opposite ISN when ``ack_flag`` is set and raw otherwise (the initial
#: SYN carries a literal 0).
NormalizedEvent = Tuple[float, bool, int, int, int, int, bool, bool,
                        bool, bool]


class RecordedTimeline:
    """The replayable record of one admitted session."""

    __slots__ = ("started_at", "duration", "guard", "response_size",
                 "events", "forward_offset", "fetch_completed_offset",
                 "fetch_size", "keyword_text", "tproc",
                 "be_arrival_offset", "be_completed_offset",
                 "be_response_size", "validated")

    def __init__(self, started_at: float, duration: float, guard: float,
                 response_size: int, events: Sequence[NormalizedEvent],
                 forward_offset: float, fetch_completed_offset: float,
                 fetch_size: int, keyword_text: str, tproc: float,
                 be_arrival_offset: float, be_completed_offset: float,
                 be_response_size: int):
        self.started_at = started_at
        self.duration = duration
        #: Quiet tail the session needs beyond ``completed_at`` (FIN
        #: exchange); also the isolation spacing admission enforces.
        self.guard = guard
        self.response_size = response_size
        self.events = tuple(events)
        self.forward_offset = forward_offset
        self.fetch_completed_offset = fetch_completed_offset
        self.fetch_size = fetch_size
        self.keyword_text = keyword_text
        self.tproc = tproc
        self.be_arrival_offset = be_arrival_offset
        self.be_completed_offset = be_completed_offset
        self.be_response_size = be_response_size
        #: Entries start unvalidated: the first reuse still simulates
        #: and compares before hits are allowed to skip simulation.
        self.validated = False


def _session_isns(events: Sequence[PacketEvent]
                  ) -> Optional[Tuple[int, int]]:
    """(client ISN, server ISN) as observed in a captured trace."""
    client_isn = server_isn = None
    for event in events:
        if client_isn is None and event.direction == "out":
            client_isn = event.seq
        if server_isn is None and event.direction == "in":
            server_isn = event.seq
        if client_isn is not None and server_isn is not None:
            return client_isn, server_isn
    return None


def record_timeline(session, guard: float, fetch_record,
                    query_record) -> Optional[RecordedTimeline]:
    """Normalize a completed session into a replayable record.

    Returns None when the trace is not normalizable (no packets in one
    direction — a session that never completed its handshake should
    have been filtered out by admission already).
    """
    isns = _session_isns(session.events)
    if isns is None:
        return None
    client_isn, server_isn = isns
    started = session.started_at
    events: List[NormalizedEvent] = []
    for e in session.events:
        out = e.direction == "out"
        seq_rel = e.seq - (client_isn if out else server_isn)
        if e.ack_flag:
            ack_field = e.ack - (server_isn if out else client_isn)
        else:
            ack_field = e.ack
        events.append((e.time - started, out, e.wire_size, e.payload_len,
                       seq_rel, ack_field, e.syn, e.fin, e.ack_flag,
                       e.retransmit))
    return RecordedTimeline(
        started_at=started,
        duration=session.completed_at - started,
        guard=guard,
        response_size=session.response_size,
        events=events,
        forward_offset=fetch_record.forwarded_at - started,
        fetch_completed_offset=fetch_record.completed_at - started,
        fetch_size=fetch_record.response_size,
        keyword_text=query_record.keyword_text,
        tproc=query_record.tproc,
        be_arrival_offset=query_record.arrival_time - started,
        be_completed_offset=query_record.completed_time - started,
        be_response_size=query_record.response_size)


def materialize_events(timeline: RecordedTimeline, start: float,
                       vp_name: str, fe_name: str, local_port: int,
                       tcp_host) -> List[PacketEvent]:
    """Rebuild the capture events of a replayed session.

    ``tcp_host`` is any host sharing the campaign's stream registry —
    ISN derivation depends only on the seed and the flow key, so the
    client host stands in for both endpoints.
    """
    seed = tcp_host.streams.seed
    client_isn = flow_isn(seed, vp_name, local_port, fe_name,
                          FRONTEND_PORT)
    server_isn = flow_isn(seed, fe_name, FRONTEND_PORT, vp_name,
                          local_port)
    events: List[PacketEvent] = []
    append = events.append
    for (offset, out, wire_size, payload_len, seq_rel, ack_field, syn,
         fin, ack_flag, retransmit) in timeline.events:
        if out:
            append(PacketEvent(
                start + offset, "out", vp_name, fe_name, local_port,
                FRONTEND_PORT, wire_size, payload_len,
                seq_rel + client_isn,
                ack_field + server_isn if ack_flag else ack_field,
                syn, fin, ack_flag, retransmit))
        else:
            append(PacketEvent(
                start + offset, "in", fe_name, vp_name, FRONTEND_PORT,
                local_port, wire_size, payload_len,
                seq_rel + server_isn,
                ack_field + client_isn if ack_flag else ack_field,
                syn, fin, ack_flag, retransmit))
    return events


def observable_tuple(session, fetch_record, query_record) -> tuple:
    """Every replay-reproduced observable of a completed session.

    Used by validation: the miss-path session's actual observables are
    compared against the shifted recording's prediction; only equality
    promotes the cache entry to replayable.
    """
    return (
        session.local_port, session.started_at, session.completed_at,
        session.failed, session.response_size,
        tuple((e.time, e.direction, e.src, e.dst, e.sport, e.dport,
               e.wire_size, e.payload_len, e.seq, e.ack, e.syn, e.fin,
               e.ack_flag, e.retransmit) for e in session.events),
        fetch_record.forwarded_at, fetch_record.completed_at,
        fetch_record.response_size,
        query_record.arrival_time, query_record.completed_time,
        query_record.tproc, query_record.response_size,
    )


def predicted_tuple(timeline: RecordedTimeline, start: float,
                    vp_name: str, fe_name: str, local_port: int,
                    tcp_host) -> tuple:
    """What :func:`observable_tuple` would return had the session been
    replayed from ``timeline`` at ``start`` — the validation yardstick."""
    events = materialize_events(timeline, start, vp_name, fe_name,
                                local_port, tcp_host)
    return (
        local_port, start, start + timeline.duration, None,
        timeline.response_size,
        tuple((e.time, e.direction, e.src, e.dst, e.sport, e.dport,
               e.wire_size, e.payload_len, e.seq, e.ack, e.syn, e.fin,
               e.ack_flag, e.retransmit) for e in events),
        start + timeline.forward_offset,
        start + timeline.fetch_completed_offset,
        timeline.fetch_size,
        start + timeline.be_arrival_offset,
        start + timeline.be_completed_offset,
        timeline.tproc, timeline.be_response_size,
    )
