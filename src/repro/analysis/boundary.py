"""Static/dynamic content boundary detection.

Section 3 of the paper: "Using the packet traces collected via TCPdump,
we perform detailed application layer content analysis ... we find that
in the search results returned by both Bing and Google, there is a
portion of the content that is static, namely, independent of the search
keywords submitted."

This module reproduces that content analysis.  It takes the raw inbound
byte streams of sessions that queried *different keywords* against the
same service and finds their longest common prefix.  Because the static
portion (HTTP headers, CSS, static menu) is keyword-independent, the
common prefix ends where the dynamic portion begins — giving a boundary
*in stream offsets* that temporal analysis can then apply to sessions
captured without payloads.

Nothing here reads ground truth: the boundary is discovered exactly the
way the paper discovered it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.analysis.stream import reconstruct_inbound_stream
from repro.http.message import ResponseParser
from repro.measure.session import QuerySession


class BoundaryError(Exception):
    """Raised when a boundary cannot be determined from the sessions."""


@dataclass(frozen=True)
class BoundaryEstimate:
    """Result of the content analysis for one service.

    Attributes
    ----------
    stream_offset:
        Inbound stream offset (bytes from the first payload byte) at
        which responses for different keywords diverge.  Everything
        before it is the static portion (plus HTTP framing).
    sessions_used:
        How many sessions contributed.
    distinct_keywords:
        How many distinct keywords the contributing sessions used.
    min_stream_length:
        Shortest contributing stream (upper bound on the boundary).
    """

    stream_offset: int
    sessions_used: int
    distinct_keywords: int
    min_stream_length: int


def common_prefix_length(streams: Sequence[bytes]) -> int:
    """Length of the longest common prefix of all byte strings."""
    if not streams:
        raise ValueError("no streams supplied")
    shortest = min(len(s) for s in streams)
    reference = streams[0]
    # Binary search on the prefix length.
    low, high = 0, shortest
    while low < high:
        mid = (low + high + 1) // 2
        prefix = reference[:mid]
        if all(s[:mid] == prefix for s in streams[1:]):
            low = mid
        else:
            high = mid - 1
    return low


def detect_boundary(sessions: Sequence[QuerySession]) -> BoundaryEstimate:
    """Locate the static/dynamic boundary from captured sessions.

    Requires at least two complete sessions with *different* keywords
    (the same keyword would reproduce identical pages, so the "common
    prefix" would be the entire response — which is itself the signal
    the FE-caching analysis uses, but useless for boundary detection).
    """
    complete = [s for s in sessions if s.complete]
    if len(complete) < 2:
        raise BoundaryError("need at least two complete sessions")
    keywords = {s.keyword.text for s in complete}
    if len(keywords) < 2:
        raise BoundaryError(
            "all sessions used the same keyword; the common prefix "
            "would span the whole response")
    streams = [reconstruct_inbound_stream(s.events) for s in complete]
    offset = common_prefix_length(streams)
    shortest = min(len(s) for s in streams)
    if offset >= shortest:
        raise BoundaryError(
            "streams are identical over their whole shared length; "
            "cannot have used different keywords")
    if offset == 0:
        raise BoundaryError("no common prefix; are these the same service?")
    return BoundaryEstimate(stream_offset=offset,
                            sessions_used=len(complete),
                            distinct_keywords=len(keywords),
                            min_stream_length=shortest)


def boundaries_per_service(sessions: Sequence[QuerySession]
                           ) -> Dict[str, BoundaryEstimate]:
    """Run boundary detection separately for each service present.

    Sessions of one service must share a front-end server (the raw
    stream prefix includes FE-specific response headers); for mixed-FE
    campaigns use :class:`BoundaryCalibration` instead.
    """
    by_service: Dict[str, List[QuerySession]] = {}
    for session in sessions:
        by_service.setdefault(session.service, []).append(session)
    return {service: detect_boundary(group)
            for service, group in by_service.items()}


# ---------------------------------------------------------------------------
# body-level analysis and per-FE calibration
# ---------------------------------------------------------------------------
def parse_body(stream: bytes) -> bytes:
    """Extract the HTTP response body from a raw inbound stream."""
    parser = ResponseParser()
    body = None
    for kind, payload in parser.feed(stream):
        if kind == "end":
            body = payload.body
            break
    if body is None:
        raise BoundaryError("stream does not contain a complete response")
    return body


def detect_static_size(sessions: Sequence[QuerySession]) -> int:
    """Static-portion size from parsed response *bodies*.

    Body-level analysis is FE-independent (response headers differ per
    front-end but the cached static content does not), so sessions from
    different FEs of the same service can be pooled — this mirrors the
    paper's application-layer content analysis most directly.
    """
    complete = [s for s in sessions if s.complete]
    if len(complete) < 2:
        raise BoundaryError("need at least two complete sessions")
    if len({s.keyword.text for s in complete}) < 2:
        raise BoundaryError("sessions must use at least two keywords")
    bodies = [parse_body(reconstruct_inbound_stream(s.events))
              for s in complete]
    size = common_prefix_length(bodies)
    if size == 0:
        raise BoundaryError("responses share no common prefix")
    if size >= min(len(b) for b in bodies):
        raise BoundaryError("response bodies are identical")
    return size


def map_body_offset_to_stream(stream: bytes, body_offset: int) -> int:
    """Map a body offset to its raw-stream offset through HTTP framing.

    Supports Content-Length and chunked transfer encoding.  Raises
    :class:`BoundaryError` if the stream ends before the offset.
    """
    if body_offset < 0:
        raise ValueError("body_offset must be >= 0")
    head_end = stream.find(b"\r\n\r\n")
    if head_end < 0:
        raise BoundaryError("no HTTP head in stream")
    head = stream[:head_end].decode("latin-1", errors="replace").lower()
    cursor = head_end + 4
    if "transfer-encoding: chunked" not in head:
        target = cursor + body_offset
        if target >= len(stream):
            raise BoundaryError("stream shorter than requested offset")
        return target
    remaining = body_offset
    while True:
        line_end = stream.find(b"\r\n", cursor)
        if line_end < 0:
            raise BoundaryError("truncated chunk header")
        try:
            chunk_size = int(stream[cursor:line_end].split(b";")[0], 16)
        except ValueError:
            raise BoundaryError("bad chunk size in stream")
        data_start = line_end + 2
        if chunk_size == 0:
            raise BoundaryError("stream body shorter than requested offset")
        if remaining < chunk_size:
            return data_start + remaining
        remaining -= chunk_size
        cursor = data_start + chunk_size + 2  # skip payload + CRLF


@dataclass(frozen=True)
class ChunkSpan:
    """One chunk of a chunked response, in raw-stream offsets."""

    frame_start: int    # where the chunk's size line begins
    payload_start: int  # first payload byte
    payload_end: int    # one past the last payload byte

    @property
    def size(self) -> int:
        return self.payload_end - self.payload_start


def chunk_spans(stream: bytes) -> List[ChunkSpan]:
    """Walk a chunked response's framing; empty list if not chunked."""
    head_end = stream.find(b"\r\n\r\n")
    if head_end < 0:
        raise BoundaryError("no HTTP head in stream")
    head = stream[:head_end].decode("latin-1", errors="replace").lower()
    if "transfer-encoding: chunked" not in head:
        return []
    spans = []
    cursor = head_end + 4
    while True:
        line_end = stream.find(b"\r\n", cursor)
        if line_end < 0:
            raise BoundaryError("truncated chunk header")
        try:
            size = int(stream[cursor:line_end].split(b";")[0], 16)
        except ValueError:
            raise BoundaryError("bad chunk size in stream")
        payload_start = line_end + 2
        if size == 0:
            return spans
        spans.append(ChunkSpan(cursor, payload_start, payload_start + size))
        cursor = payload_start + size + 2


@dataclass(frozen=True)
class StreamBoundary:
    """The static/dynamic split of one front-end's response stream.

    ``static_end`` is one past the last static payload byte in raw-stream
    offsets; ``dynamic_start`` is the first raw-stream byte that travels
    with the dynamic portion (the next chunk's frame when chunked).  The
    two differ by the framing bytes between the parts.
    """

    static_end: int
    dynamic_start: int

    def __post_init__(self):
        if not 0 < self.static_end <= self.dynamic_start:
            raise ValueError("invalid boundary offsets")


def snap_to_chunk_boundary(stream: bytes, body_upper_bound: int
                           ) -> StreamBoundary:
    """Resolve the exact boundary by snapping to chunk structure.

    The body-level content diff yields an *upper bound* on the static
    size: the first bytes of the dynamic portion are often constant
    markup shared by every result page, so the common prefix overshoots.
    Front-end servers, however, flush the cached static portion as its
    own chunk(s); the true boundary therefore coincides with a chunk
    boundary — the last one at or below the upper bound.  (This combines
    the paper's two techniques: content analysis and the packet/framing
    structure.)
    """
    spans = chunk_spans(stream)
    if not spans:
        # Content-Length response: no framing to snap to; use the bound.
        offset = map_body_offset_to_stream(stream, body_upper_bound)
        return StreamBoundary(static_end=offset, dynamic_start=offset)
    cumulative = 0
    for index, span in enumerate(spans):
        cumulative += span.size
        if cumulative >= body_upper_bound:
            # First chunk whose end reaches the bound: if it ends exactly
            # at the bound the boundary is the next chunk; otherwise the
            # bound overshot into this chunk and the boundary is this
            # chunk's start.
            if cumulative == body_upper_bound and index + 1 < len(spans):
                return StreamBoundary(static_end=span.payload_end,
                                      dynamic_start=spans[index + 1]
                                      .frame_start)
            if index == 0:
                # The bound falls inside the first chunk: no earlier
                # chunk boundary to snap to, use the bound itself.
                offset = map_body_offset_to_stream(stream,
                                                   body_upper_bound)
                return StreamBoundary(static_end=offset,
                                      dynamic_start=offset)
            return StreamBoundary(
                static_end=spans[index - 1].payload_end,
                dynamic_start=span.frame_start)
    raise BoundaryError("body shorter than the static upper bound")


@dataclass
class BoundaryCalibration:
    """Per-front-end stream boundaries for one service.

    Built once from a small calibration campaign with payloads captured;
    then :meth:`boundary_for` classifies bulk sessions (captured without
    payloads) by their front-end server.

    ``static_size`` is the *body-level* static-portion size implied by
    the snapped boundary (the true cacheable prefix); ``static_upper``
    is the raw common-prefix length the content diff produced.
    """

    service: str
    static_size: int
    static_upper: int
    boundaries: Dict[str, StreamBoundary] = field(default_factory=dict)

    @classmethod
    def from_sessions(cls, sessions: Sequence[QuerySession]
                      ) -> "BoundaryCalibration":
        """Calibrate from payload-bearing sessions of one service.

        Needs >= 2 keywords overall (for the body diff) and >= 1 session
        per front-end that bulk analysis will encounter.
        """
        complete = [s for s in sessions if s.complete]
        if not complete:
            raise BoundaryError("no complete sessions")
        services = {s.service for s in complete}
        if len(services) != 1:
            raise BoundaryError("calibration sessions span %d services"
                                % len(services))
        static_upper = detect_static_size(complete)
        calibration = cls(service=services.pop(), static_size=0,
                          static_upper=static_upper)
        for session in complete:
            if session.fe_name in calibration.boundaries:
                continue
            stream = reconstruct_inbound_stream(session.events)
            boundary = snap_to_chunk_boundary(stream, static_upper)
            calibration.boundaries[session.fe_name] = boundary
            if calibration.static_size == 0:
                spans = chunk_spans(stream)
                calibration.static_size = sum(
                    s.size for s in spans
                    if s.payload_end <= boundary.static_end) \
                    or static_upper
        return calibration

    def boundary_for(self, session: QuerySession) -> StreamBoundary:
        """The stream boundary to use for a bulk session."""
        try:
            return self.boundaries[session.fe_name]
        except KeyError:
            raise BoundaryError(
                "no calibration for front-end %r; add a calibration "
                "session against it" % session.fe_name) from None
