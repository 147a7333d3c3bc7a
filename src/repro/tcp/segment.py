"""TCP segments.

A :class:`Segment` is the one object that crosses a
:class:`~repro.net.link.Link`: when it goes on the wire,
:meth:`repro.tcp.connection.Connection._transmit` stamps it with its
source and destination hosts and its on-wire size.

Segments carry *real payload bytes*: the content-analysis pipeline
(Section 3 of the paper) diffs actual response bodies across keywords to
find the static prefix, so the simulated wire must carry the actual
synthetic HTML.

Sequence-number arithmetic follows TCP conventions: SYN and FIN each
consume one sequence number; ``seq`` is the number of the first payload
byte; ``ack`` is cumulative (next byte expected).

``data`` is bytes-like rather than strictly ``bytes``: the send path
hands segments zero-copy :class:`memoryview` slices of the send buffer
(see :meth:`repro.tcp.buffers.SendBuffer.peek_view`), which every layer
below treats as length-only freight.  Consumers that need real bytes —
the packet-capture boundary, application delivery — materialize with
``bytes(...)`` there and only there.

This is a manual ``__slots__`` class: one segment per MSS of payload
plus one per ACK makes the constructor a hot-path cost.
"""

from __future__ import annotations

#: Combined TCP + IP + link framing bytes charged per segment on the wire.
HEADER_BYTES = 40

#: Default maximum segment size (payload bytes per segment); the classic
#: Ethernet-derived value used by the services measured in the paper.
DEFAULT_MSS = 1460


class Segment:
    """One TCP segment.

    Attributes
    ----------
    src, dst:
        Host names of the sender and the receiver; set on transmit.
    size_bytes:
        On-wire size including :data:`HEADER_BYTES`; set on transmit.
    sport, dport:
        Source and destination ports.
    seq:
        Sequence number of the first byte of ``data`` (or of the SYN/FIN
        when the segment carries one and no data).
    ack:
        Cumulative acknowledgement number; meaningful when ``ack_flag``.
    data:
        Payload bytes (may be empty; may be a ``memoryview`` into the
        sender's buffer — see module docstring).
    syn, fin, ack_flag:
        Control flags.
    retransmit:
        True when this transmission is a retransmission — used to honour
        Karn's algorithm when sampling RTT.
    """

    __slots__ = ("src", "dst", "size_bytes", "sport", "dport", "seq", "ack",
                 "data", "syn", "fin", "ack_flag", "retransmit")

    def __init__(self, sport: int, dport: int, seq: int, ack: int = 0,
                 data: bytes = b"", syn: bool = False, fin: bool = False,
                 ack_flag: bool = False, retransmit: bool = False):
        if seq < 0 or ack < 0:
            raise ValueError("sequence/ack numbers must be non-negative")
        self.sport = sport
        self.dport = dport
        self.seq = seq
        self.ack = ack
        self.data = data
        self.syn = syn
        self.fin = fin
        self.ack_flag = ack_flag
        self.retransmit = retransmit
