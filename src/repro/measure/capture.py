"""Client-side packet capture (the simulated tcpdump).

A :class:`PacketCapture` attaches to a client's
:class:`~repro.tcp.host.TcpHost` as its capture hook: the host hands it
every segment as it sends or receives it, and the capture records one
:class:`PacketEvent` per packet of each connection it captures —
timestamp, direction, addressing, TCP flags/sequence numbers, and
(optionally) the payload bytes.  Each client host has one capture, made
with it by the scenario
(:meth:`~repro.testbed.scenario.Scenario.client_capture`), however many
emulators query from it.  Capture is per
session: the emulator opens its connection's local port before the SYN
leaves and closes it when the session ends, taking that port's events.
Packets on other ports are not kept, so no capture grows with the
campaign.  The analysis pipeline consumes *only* these events, never
simulator internals, mirroring how the paper works exclusively from
tcpdump traces.

Payload storage is chosen per port, when the port opens, because large
campaigns (hundreds of nodes x hundreds of queries) don't need bodies
for every query: the content analysis that locates the static/dynamic
boundary runs on a small calibration set with payloads on, after which
temporal classification needs only sequence numbers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.sim.engine import Simulator
from repro.tcp.segment import Segment

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.tcp.host import TcpHost


class PacketEvent:
    """One captured packet, as tcpdump would log it.

    A manual ``__slots__`` class (not a dataclass): one instance is
    appended per captured packet, which makes its constructor a
    measurement-campaign hot path.  Its two per-packet callers (the
    capture hook and :func:`repro.sim.replay.timeline.materialize_events`)
    pass its fields positionally, in ``__slots__`` order, which costs
    well under half of a keyword call.
    """

    __slots__ = ("time", "direction", "src", "dst", "sport", "dport",
                 "wire_size", "payload_len", "seq", "ack", "syn", "fin",
                 "ack_flag", "retransmit", "payload")

    def __init__(self, time: float, direction: str, src: str, dst: str,
                 sport: int, dport: int, wire_size: int, payload_len: int,
                 seq: int, ack: int, syn: bool, fin: bool, ack_flag: bool,
                 retransmit: bool, payload: Optional[bytes] = None):
        self.time = time
        self.direction = direction  # "out" or "in"
        self.src = src
        self.dst = dst
        self.sport = sport
        self.dport = dport
        self.wire_size = wire_size
        self.payload_len = payload_len
        self.seq = seq
        self.ack = ack
        self.syn = syn
        self.fin = fin
        self.ack_flag = ack_flag
        self.retransmit = retransmit
        self.payload = payload


class PacketCapture:
    """Per-port packet recorder for one host."""

    def __init__(self, sim: Simulator, host: "TcpHost"):
        if host.capture is not None:
            raise ValueError("host %s already has a capture"
                             % host.node.name)
        self.sim = sim
        #: open local port -> (its events in capture order, keep payload)
        self._open: Dict[int, Tuple[List[PacketEvent], bool]] = {}
        host.capture = self._observe

    def open_port(self, local_port: int, store_payload: bool = False) -> None:
        """Start recording the host's packets on ``local_port``, with
        their payload bytes if ``store_payload``."""
        self._open[local_port] = ([], store_payload)

    def close_port(self, local_port: int) -> List[PacketEvent]:
        """Stop recording ``local_port`` and return what it captured."""
        return self._open.pop(local_port)[0]

    # ------------------------------------------------------------------
    def _observe(self, direction: str, segment: Segment) -> None:
        recording = self._open.get(
            segment.sport if direction == "out" else segment.dport)
        if recording is None:
            return
        events, store_payload = recording
        # The capture is the materialization boundary for zero-copy
        # segment payloads: bytes are synthesized from the wire's lazy
        # views here and only here.  On ports opened without
        # store_payload (measurement campaigns) payload travels the
        # whole simulated path length-only.
        events.append(PacketEvent(
            self.sim._now, direction, segment.src, segment.dst,
            segment.sport, segment.dport, segment.size_bytes,
            len(segment.data), segment.seq, segment.ack, segment.syn,
            segment.fin, segment.ack_flag, segment.retransmit,
            bytes(segment.data) if store_payload else None))
