"""Closed-form session model: slow-start ramp over fluid FIFO links.

This module re-derives, without running the event engine, the packet
timeline the simulator produces for one *admitted* query session: a
fresh client connection to a front-end (FE) that serves the static
portion after its processing delay and appends the dynamic portion when
the back-end (BE) fetch over the warm fixed-window leg completes.
Admission (see :mod:`repro.sim.analytic.predictor`) guarantees the
session runs alone on every link it touches, so each direction of each
link reduces to a single serialization horizon — exactly the fluid FIFO
the packet engine's :class:`~repro.net.link.Link` implements — and the
TCP sender reduces to byte-counting slow start (or a pinned window on
the BE leg): on a loss-free path with the default "infinite" ssthresh,
both Reno and Cubic grow the window by ``min(newly_acked, mss)`` per
ACK and never leave slow start.

The landmark timeline falls out of the per-segment schedule:

* ``tb`` — the client's SYN (time origin of the model);
* ``t1`` — the GET, one client-FE RTT (plus SYN/SYN-ACK wires) later;
* ``t2`` — the FE's pure ACK of the GET;
* ``t3``/``t4`` — first/last byte of the static portion arriving;
* ``t5`` — first byte of the dynamic portion arriving;
* ``te`` — last byte of the response arriving,

with the dynamic portion released at ``Tfetch = Tproc + C*RTTbe`` after
forwarding (the fixed-window BE leg's ACK clocking supplies the
``C*RTTbe`` term).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.tcp.segment import HEADER_BYTES

#: ``encode_last_chunk()`` is the 5-byte terminator ``b"0\r\n\r\n"``.
LAST_CHUNK_LEN = 5


def chunk_length(payload_len: int) -> int:
    """On-stream length of one HTTP chunk: hex size line + CRLFs."""
    return len("%x" % payload_len) + 4 + payload_len


class LinkHorizon:
    """One direction of a link as a serialization horizon.

    Replicates :meth:`repro.net.link.Link.send` for a loss-free,
    jitter-free link with an empty queue: serialization behind a single
    ``busy`` watermark at ``bandwidth``, then fixed propagation
    ``delay``.  Times are relative to the session's start; admission
    guarantees the real link is idle at that instant.
    """

    __slots__ = ("bandwidth", "delay", "busy")

    def __init__(self, bandwidth: float, delay: float):
        self.bandwidth = bandwidth
        self.delay = delay
        self.busy = 0.0

    def send(self, at: float, wire_bytes: int) -> float:
        """Serialize ``wire_bytes`` at ``at``; returns the arrival time."""
        start = self.busy if self.busy > at else at
        tx_done = start + wire_bytes / self.bandwidth
        self.busy = tx_done
        return tx_done + self.delay


class DataSegment:
    """One payload-bearing segment of a modeled transfer.

    A plain ``__slots__`` record, like :class:`ReceiverAck`: the model
    builds one per segment of every predicted session.
    """

    __slots__ = ("sent_at", "arrived_at", "offset", "size")

    def __init__(self, sent_at: float, arrived_at: float, offset: int,
                 size: int):
        self.sent_at = sent_at
        self.arrived_at = arrived_at
        self.offset = offset
        self.size = size


class ReceiverAck:
    """The receiver's pure ACK of one data segment."""

    __slots__ = ("sent_at", "arrived_at", "acked_through")

    def __init__(self, sent_at: float, arrived_at: float,
                 acked_through: int):
        self.sent_at = sent_at
        self.arrived_at = arrived_at
        self.acked_through = acked_through


def deliver_response(writes: Sequence[Tuple[float, int]],
                     down: LinkHorizon, up: LinkHorizon, *,
                     mss: int, window: int, peer_rwnd: int,
                     slow_start: bool, total_length: int,
                     ack_final: bool = True
                     ) -> Tuple[List[DataSegment], List[ReceiverAck]]:
    """Model one server-to-client data transfer segment by segment.

    ``writes`` are ``(time, nbytes)`` application writes, each its own
    send pass — exactly how ``Responder`` writes head, chunks, and
    terminator as separate ``conn.send`` calls, and how buffered bytes
    from separate writes coalesce into later window-opened segments.
    ``down`` carries data, ``up`` carries the receiver's per-segment
    pure ACKs (no delayed ACK).  With ``slow_start`` the window grows by
    ``min(newly_acked, mss)`` per ACK from ``window``; otherwise it
    stays pinned (the BE leg's ``FixedWindowController``).

    ``ack_final=False`` models the client side of a query session: the
    response-complete callback tears the connection down before the
    delayed flush, so the last data segment's ACK rides the (uncaptured)
    FIN instead of appearing as a pure ACK.
    """
    segments: List[DataSegment] = []
    acks: List[ReceiverAck] = []
    cwnd = window
    length = 0
    nxt = 0
    una = 0
    # Pending sender stimuli, processed in engine order: app writes
    # (kind -1, value = bytes appended) and arriving cumulative ACKs
    # (kind +1, value = acked-through offset).  The tie-break counter
    # preserves submission order at equal instants, matching the
    # engine's FIFO event queue.
    order = 0
    heap: List[Tuple[float, int, int, int]] = []
    for at, nbytes in writes:
        heap.append((at, order, -1, nbytes))
        order += 1
    heapq.heapify(heap)

    def try_send(now: float) -> None:
        nonlocal nxt, order
        # Window resolved once per pass, as Connection._try_send does.
        effective = cwnd if cwnd < peer_rwnd else peer_rwnd
        while True:
            size = mss
            unsent = length - nxt
            if unsent < size:
                size = unsent
            available = effective - (nxt - una)
            if available < size:
                size = available
            if size <= 0:
                return
            arrival = down.send(now, HEADER_BYTES + size)
            segments.append(DataSegment(now, arrival, nxt, size))
            nxt += size
            delivered = nxt  # in-order delivery: cumulative = stream nxt
            if ack_final or delivered < total_length:
                ack_arrival = up.send(arrival, HEADER_BYTES)
                acks.append(ReceiverAck(arrival, ack_arrival, delivered))
                heapq.heappush(heap, (ack_arrival, order, 1, delivered))
                order += 1

    while heap:
        now, _, kind, value = heapq.heappop(heap)
        if kind < 0:
            length += value
        else:
            newly = value - una
            if newly > 0:
                una = value
                if slow_start:
                    cwnd += newly if newly < mss else mss
        try_send(now)
    return segments, acks


@dataclass(frozen=True)
class SessionParams:
    """Resolved inputs of one admitted session, ready for the model.

    All times are seconds, sizes bytes, bandwidths bytes/second.  The
    client-FE path is symmetric in delay and bandwidth per direction
    but modeled with independent horizons; likewise FE-BE.
    """

    # client <-> FE path
    cf_delay: float
    up_bandwidth: float
    down_bandwidth: float
    # FE <-> BE path
    be_delay: float
    be_up_bandwidth: float
    be_down_bandwidth: float
    # wire sizes
    request_len: int
    fe_head_len: int
    static_len: int
    dynamic_len: int
    be_request_len: int
    be_head_len: int
    # client-facing TCP (the FE's edge stack sends, the client acks)
    mss: int
    initial_cwnd: int
    peer_rwnd: int
    # FE-BE leg (pinned window)
    be_mss: int
    be_window: int
    be_peer_rwnd: int
    # resolved service draws
    fe_delay: float
    tproc: float


@dataclass(frozen=True)
class SessionModel:
    """The model's full output, all times relative to the SYN (tb=0)."""

    synack_at: float
    get_arrival: float  # forwarding instant
    get_ack_at: float  # the paper's t2
    be_arrival: float
    be_completed: float
    fetch_completed: float
    static_write_at: float
    dynamic_write_at: float
    completed_at: float  # the paper's te
    segments: Tuple[DataSegment, ...]
    acks: Tuple[ReceiverAck, ...]
    response_size: int


def predict_session(p: SessionParams) -> SessionModel:
    """Evaluate the closed-form model for one session.

    The sequencing replicates the engine's causal order: SYN, SYN-ACK,
    GET plus the client's pure ACK queued behind it, the FE's pure ACK
    of the GET (``t2``), the BE forward at the GET's arrival, the static
    write after the FE load delay, and the dynamic write at the later of
    static-write and fetch-completion.
    """
    header = HEADER_BYTES
    up = LinkHorizon(p.up_bandwidth, p.cf_delay)
    down = LinkHorizon(p.down_bandwidth, p.cf_delay)
    syn_arrival = up.send(0.0, header)
    synack_at = down.send(syn_arrival, header)
    # The GET and the handshake-completing pure ACK leave together; the
    # ACK serializes behind the GET on the uplink.
    get_arrival = up.send(synack_at, header + p.request_len)
    up.send(synack_at, header)
    get_ack_at = down.send(get_arrival, header)

    # FE-BE leg: forward at the GET's arrival on the warm pooled
    # connection; the BE acks the request, processes for tproc, then
    # streams head + body under the pinned window with the FE acking
    # every segment (the C*RTTbe ACK clocking).
    be_up = LinkHorizon(p.be_up_bandwidth, p.be_delay)
    be_down = LinkHorizon(p.be_down_bandwidth, p.be_delay)
    be_arrival = be_up.send(get_arrival, header + p.be_request_len)
    be_down.send(be_arrival, header)
    be_completed = be_arrival + p.tproc
    be_total = p.be_head_len + p.dynamic_len
    be_segments, _ = deliver_response(
        [(be_completed, p.be_head_len), (be_completed, p.dynamic_len)],
        be_down, be_up, mss=p.be_mss, window=p.be_window,
        peer_rwnd=p.be_peer_rwnd, slow_start=False,
        total_length=be_total, ack_final=True)
    fetch_completed = be_segments[-1].arrived_at

    # Client-facing delivery: head + static chunk after the FE load
    # delay, dynamic chunk + terminator when the fetch lands (or with
    # the static flush if the fetch won the race).
    static_write_at = get_arrival + p.fe_delay
    dynamic_write_at = fetch_completed \
        if fetch_completed > static_write_at else static_write_at
    static_chunk = chunk_length(p.static_len)
    dynamic_chunk = chunk_length(p.dynamic_len)
    total = p.fe_head_len + static_chunk + dynamic_chunk + LAST_CHUNK_LEN
    segments, acks = deliver_response(
        [(static_write_at, p.fe_head_len),
         (static_write_at, static_chunk),
         (dynamic_write_at, dynamic_chunk),
         (dynamic_write_at, LAST_CHUNK_LEN)],
        down, up, mss=p.mss, window=p.initial_cwnd,
        peer_rwnd=p.peer_rwnd, slow_start=True,
        total_length=total, ack_final=False)
    return SessionModel(
        synack_at=synack_at,
        get_arrival=get_arrival,
        get_ack_at=get_ack_at,
        be_arrival=be_arrival,
        be_completed=be_completed,
        fetch_completed=fetch_completed,
        static_write_at=static_write_at,
        dynamic_write_at=dynamic_write_at,
        completed_at=segments[-1].arrived_at,
        segments=tuple(segments),
        acks=tuple(acks),
        response_size=p.static_len + p.dynamic_len)


def stream_boundaries(fe_head_len: int, static_len: int,
                      dynamic_len: int) -> Tuple[int, int]:
    """Ground-truth (static_end, dynamic_start) stream offsets.

    Offsets are positions in the FE's response byte stream (chunk
    framing included), matching the
    :class:`~repro.analysis.boundary.StreamBoundary` convention:
    ``static_end`` is one past the static portion's last payload byte,
    ``dynamic_start`` the first byte that travels with the dynamic
    portion — its chunk's frame.
    """
    del dynamic_len  # the boundary precedes the dynamic chunk's frame
    static_start = fe_head_len + len("%x" % static_len) + 2
    static_end = static_start + static_len
    dynamic_start = fe_head_len + chunk_length(static_len)
    return static_end, dynamic_start
