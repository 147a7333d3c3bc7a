"""Timeline extraction: from packet traces to the paper's metrics.

Given a query session's packet trace and the static/dynamic stream
boundary discovered by content analysis
(:mod:`repro.analysis.boundary`), this module extracts the Figure-2
event times ``tb, t1, t2, t3, t4, t5, te`` and computes ``Tstatic``,
``Tdynamic``, ``Tdelta`` and the overall delay — the quantities every
figure of the paper is built from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.analysis.stream import (
    arrival_time_of_offset,
    inbound_byte_arrivals,
)
from repro.measure.capture import PacketEvent
from repro.measure.session import QuerySession


class MetricsError(Exception):
    """Raised when a trace is too incomplete to extract the timeline."""


@dataclass(frozen=True)
class QueryTimeline:
    """The Figure-2 event times for one query (absolute sim seconds)."""

    tb: float   # first SYN sent
    t1: float   # HTTP GET sent
    t2: float   # ACK of the GET received
    t3: float   # first static-content packet received
    t4: float   # last static-content packet received
    t5: float   # first dynamic-content packet received
    te: float   # last packet of the response received
    rtt: float  # handshake-measured RTT


@dataclass(frozen=True)
class QueryMetrics:
    """The paper's derived quantities for one query."""

    session: QuerySession
    timeline: QueryTimeline

    @property
    def tstatic(self) -> float:
        """Tstatic := t4 - t2."""
        return self.timeline.t4 - self.timeline.t2

    @property
    def tdynamic(self) -> float:
        """Tdynamic := t5 - t2."""
        return self.timeline.t5 - self.timeline.t2

    @property
    def tdelta(self) -> float:
        """Tdelta := t5 - t4 (>= 0; 0 when the parts coalesce)."""
        return max(0.0, self.timeline.t5 - self.timeline.t4)

    @property
    def overall_delay(self) -> float:
        """User-perceived response time: connection open to last byte."""
        return self.timeline.te - self.timeline.tb

    @property
    def rtt(self) -> float:
        return self.timeline.rtt


def _boundary_offsets(boundary) -> "tuple[int, int]":
    """Normalise a boundary argument to (static_end, dynamic_start).

    Accepts a plain int (single split offset) or an object exposing
    ``static_end`` / ``dynamic_start`` attributes
    (:class:`repro.analysis.boundary.StreamBoundary`).
    """
    static_end = getattr(boundary, "static_end", None)
    dynamic_start = getattr(boundary, "dynamic_start", None)
    if static_end is None or dynamic_start is None:
        static_end = dynamic_start = int(boundary)
    return static_end, dynamic_start


def packet_landmarks(events: Sequence[PacketEvent]) -> Dict[str, float]:
    """``tb``, ``rtt``, ``t1`` and ``t2`` in one pass over a trace;
    those it lacks are absent.  :func:`extract_timeline` and the
    observability spans both start from this scan."""
    marks: Dict[str, float] = {}
    syn_ack_time = get_end_seq = None
    for event in events:
        if event.direction == "out" and event.syn and "tb" not in marks:
            marks["tb"] = event.time
        elif (event.direction == "in" and event.syn and event.ack_flag
              and syn_ack_time is None):
            syn_ack_time = event.time
        elif (event.direction == "out" and event.payload_len > 0
              and get_end_seq is None):
            marks["t1"] = event.time
            get_end_seq = event.seq + event.payload_len
        elif (get_end_seq is not None and "t2" not in marks
              and event.direction == "in" and event.ack_flag
              and event.ack >= get_end_seq and event.time >= marks["t1"]):
            marks["t2"] = event.time
    if syn_ack_time is not None and "tb" in marks:
        marks["rtt"] = syn_ack_time - marks["tb"]
    return marks


def extract_timeline(session: QuerySession,
                     boundary) -> QueryTimeline:
    """Extract the Figure-2 event times from a session trace.

    ``boundary`` locates the static/dynamic split in the inbound stream:
    either a single offset or a
    :class:`repro.analysis.boundary.StreamBoundary` (from the per-FE
    calibration), whose ``static_end``/``dynamic_start`` pin t4 and t5
    independently of the framing bytes between the parts.
    """
    static_end, dynamic_start = _boundary_offsets(boundary)
    if static_end <= 0:
        raise MetricsError("boundary offset must be positive")
    events = session.events
    if not events:
        raise MetricsError("session %s has no trace" % session.query_id)

    marks = packet_landmarks(events)
    if "rtt" not in marks:
        raise MetricsError("session %s lacks a handshake" % session.query_id)
    if "t1" not in marks:
        raise MetricsError("session %s never sent a request"
                           % session.query_id)
    if "t2" not in marks:
        raise MetricsError("GET was never acknowledged in session %s"
                           % session.query_id)

    arrivals = inbound_byte_arrivals(events)
    if not arrivals:
        raise MetricsError("no inbound data in session %s"
                           % session.query_id)
    t4 = arrival_time_of_offset(arrivals, static_end - 1)
    t5 = arrival_time_of_offset(arrivals, dynamic_start)
    if t4 is None or t5 is None:
        raise MetricsError(
            "session %s never delivered the boundary bytes (offsets "
            "%d/%d)" % (session.query_id, static_end, dynamic_start))
    return QueryTimeline(tb=marks["tb"], t1=marks["t1"], t2=marks["t2"],
                         t3=arrivals[0].time, t4=t4, t5=t5,
                         te=arrivals[-1].time, rtt=marks["rtt"])


def extract_metrics(session: QuerySession, boundary) -> QueryMetrics:
    """Extract :class:`QueryMetrics` for one session."""
    return QueryMetrics(session=session,
                        timeline=extract_timeline(session, boundary))


def extract_all_calibrated(sessions: Sequence[QuerySession],
                           calibration,
                           skip_failed: bool = True) -> List[QueryMetrics]:
    """Extract metrics for a batch with per-front-end boundaries,
    skipping failed/incomplete sessions unless ``skip_failed`` is False.

    ``calibration`` is a
    :class:`repro.analysis.boundary.BoundaryCalibration`; each session
    is classified with the stream boundary of its own front-end server.
    """
    out = []
    for session in sessions:
        if skip_failed and not session.complete:
            continue
        try:
            boundary = calibration.boundary_for(session)
            out.append(extract_metrics(session, boundary))
        except MetricsError:
            if not skip_failed:
                raise
    return out
