"""Per-flow TCP stream reconstruction from captured packets.

Given the packet events of one query session (client viewpoint), these
functions rebuild the server-to-client byte stream: which stream offsets
arrived when (for the timeline metrics) and, when payloads were captured,
the actual bytes (for the content analysis).

All offsets are relative to the first payload byte of the inbound stream
(i.e. the peer's ISN + 1), exactly how tcpdump-based analysis would
normalise sequence numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.measure.capture import PacketEvent


class TraceError(Exception):
    """Raised when a packet trace is malformed or incomplete."""


@dataclass(frozen=True)
class ByteArrival:
    """New inbound stream bytes delivered by one packet."""

    time: float
    start: int   # stream offset of the first new byte
    end: int     # one past the last new byte
    event: PacketEvent


def peer_isn(events: Sequence[PacketEvent]) -> int:
    """The server's initial sequence number, from its SYN-ACK."""
    for event in events:
        if event.direction == "in" and event.syn:
            return event.seq
    raise TraceError("no inbound SYN in trace")


def inbound_byte_arrivals(events: Sequence[PacketEvent]) -> List[ByteArrival]:
    """First-arrival intervals of the inbound stream, in time order.

    Retransmitted or overlapping data counts only where it delivers new
    (previously unseen) stream bytes; this makes the timeline metrics
    robust to loss on the client-FE path.
    """
    isn = peer_isn(events)
    arrivals: List[ByteArrival] = []
    covered: List[List[int]] = []  # sorted disjoint [start, end) intervals

    def add_interval(start: int, end: int) -> List[List[int]]:
        """Insert [start, end); return the newly covered sub-intervals."""
        new_parts = []
        cursor = start
        for interval in covered:
            if interval[1] <= cursor:
                continue
            if interval[0] >= end:
                break
            if interval[0] > cursor:
                new_parts.append([cursor, min(interval[0], end)])
            cursor = max(cursor, interval[1])
            if cursor >= end:
                break
        if cursor < end:
            new_parts.append([cursor, end])
        if new_parts:
            covered.extend(new_parts)
            covered.sort()
            _merge(covered)
        return new_parts

    for event in events:
        if event.direction != "in" or event.payload_len == 0:
            continue
        start = event.seq - (isn + 1)
        end = start + event.payload_len
        if start < 0:
            raise TraceError("inbound data below stream start (seq=%d)"
                             % event.seq)
        for part_start, part_end in add_interval(start, end):
            arrivals.append(ByteArrival(event.time, part_start, part_end,
                                        event))
    return arrivals


def _merge(intervals: List[List[int]]) -> None:
    """Coalesce sorted, possibly touching intervals in place."""
    merged = []
    for interval in intervals:
        if merged and interval[0] <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], interval[1])
        else:
            merged.append(list(interval))
    intervals[:] = merged


def reconstruct_inbound_stream(events: Sequence[PacketEvent]) -> bytes:
    """Rebuild the raw inbound byte stream (requires stored payloads)."""
    isn = peer_isn(events)
    chunks = {}
    top = 0
    for event in events:
        if event.direction != "in" or event.payload_len == 0:
            continue
        if event.payload is None:
            raise TraceError(
                "trace captured without payloads; re-run the capture "
                "with store_payload=True for content analysis")
        start = event.seq - (isn + 1)
        existing = chunks.get(start)
        if existing is None or len(existing) < len(event.payload):
            chunks[start] = event.payload
        top = max(top, start + event.payload_len)
    stream = bytearray(top)
    filled = bytearray(top)
    for start in sorted(chunks):
        data = chunks[start]
        stream[start:start + len(data)] = data
        filled[start:start + len(data)] = b"\x01" * len(data)
    if top and not all(filled):
        raise TraceError("inbound stream has holes; trace incomplete")
    return bytes(stream)


def arrival_time_of_offset(arrivals: Sequence[ByteArrival],
                           offset: int) -> Optional[float]:
    """When the stream byte at ``offset`` first arrived (None if never)."""
    for arrival in arrivals:
        if arrival.start <= offset < arrival.end:
            return arrival.time
    return None
