"""TCP segments.

A :class:`Segment` is the transport PDU carried in a
:class:`repro.net.packet.Packet`.  Segments carry *real payload bytes*:
the content-analysis pipeline (Section 3 of the paper) diffs actual
response bodies across keywords to find the static prefix, so the
simulated wire must carry the actual synthetic HTML.

Sequence-number arithmetic follows TCP conventions: SYN and FIN each
consume one sequence number; ``seq`` is the number of the first payload
byte; ``ack`` is cumulative (next byte expected).

``data`` is bytes-like rather than strictly ``bytes``: the send path
hands segments zero-copy :class:`memoryview` slices of the send buffer
(see :meth:`repro.tcp.buffers.SendBuffer.peek_view`), which every layer
below treats as length-only freight.  Consumers that need real bytes —
the packet-capture boundary, application delivery — materialize with
``bytes(...)`` there and only there.

Like :class:`~repro.net.packet.Packet`, this is a manual ``__slots__``
class: one segment per MSS of payload plus one per ACK makes the
constructor a hot-path cost.
"""

from __future__ import annotations

import itertools
from typing import Optional

#: Combined TCP + IP + link framing bytes charged per segment on the wire.
HEADER_BYTES = 40

#: Default maximum segment size (payload bytes per segment); the classic
#: Ethernet-derived value used by the services measured in the paper.
DEFAULT_MSS = 1460

_segment_counter = itertools.count(1)


class Segment:
    """One TCP segment.

    Attributes
    ----------
    sport, dport:
        Source and destination ports (host names live on the enclosing
        :class:`~repro.net.packet.Packet`).
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
    uid:
        Unique id for tracing.
    """

    __slots__ = ("sport", "dport", "seq", "ack", "data", "syn", "fin",
                 "ack_flag", "retransmit", "uid")

    def __init__(self, sport: int, dport: int, seq: int, ack: int = 0,
                 data: bytes = b"", syn: bool = False, fin: bool = False,
                 ack_flag: bool = False, retransmit: bool = False,
                 uid: Optional[int] = None):
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
        self.uid = next(_segment_counter) if uid is None else uid

    @property
    def wire_size(self) -> int:
        """On-wire size in bytes including all header overhead."""
        return HEADER_BYTES + len(self.data)

    @property
    def is_pure_ack(self) -> bool:
        """True for segments that carry only an acknowledgement."""
        return (self.ack_flag and not len(self.data)
                and not self.syn and not self.fin)

    def describe(self) -> str:
        """Compact tcpdump-style description, used in trace tooling."""
        flags = "".join(code for flag, code in
                        ((self.syn, "S"), (self.fin, "F"),
                         (self.ack_flag, "."))
                        if flag) or "-"
        return "%d>%d [%s] seq=%d ack=%d len=%d" % (
            self.sport, self.dport, flags, self.seq, self.ack,
            len(self.data))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<Segment #%d %s>" % (self.uid, self.describe())
