"""Network nodes.

A :class:`Node` owns outgoing links, a next-hop routing table, a registry
of transport protocol handlers (keyed by the packet ``protocol`` tag), and
a list of *taps* — observers that see every packet the node originates,
receives, forwards, or drops.  The packet-capture layer used by the
measurement emulator is implemented purely as a tap, so analysis code sees
exactly what a tcpdump at that host would see.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.net.geo import GeoPoint
from repro.net.link import Link
from repro.net.packet import Packet
from repro.sim.engine import Simulator

#: Tap event names, in the order a forwarding node would emit them.
TAP_EVENTS = ("send", "recv", "forward", "drop")

TapFn = Callable[[str, Packet], None]


@dataclass
class NodeStats:
    """Per-node packet counters."""

    sent: int = 0
    received: int = 0
    forwarded: int = 0
    dropped_no_route: int = 0
    dropped_no_handler: int = 0


class Node:
    """A host or router in the simulated network."""

    def __init__(self, sim: Simulator, name: str,
                 location: Optional[GeoPoint] = None):
        if not name:
            raise ValueError("node name must be non-empty")
        self.sim = sim
        self.name = name
        self.location = location
        self.links: Dict[str, Link] = {}
        self.routes: Dict[str, str] = {}
        self.protocol_handlers: Dict[str, Callable[[Packet], None]] = {}
        self.taps: List[TapFn] = []
        self.stats = NodeStats()

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach_link(self, neighbor: str, link: Link) -> None:
        """Register the outgoing ``link`` toward ``neighbor``."""
        if neighbor in self.links:
            raise ValueError("%s already has a link to %s" % (self.name, neighbor))
        self.links[neighbor] = link

    def register_protocol(self, protocol: str,
                          handler: Callable[[Packet], None]) -> None:
        """Register ``handler(packet)`` for packets tagged ``protocol``."""
        if protocol in self.protocol_handlers:
            raise ValueError("protocol %r already registered on %s"
                             % (protocol, self.name))
        self.protocol_handlers[protocol] = handler

    def add_tap(self, tap: TapFn) -> None:
        """Attach a packet observer called as ``tap(event, packet)``."""
        self.taps.append(tap)

    def _notify(self, event: str, packet: Packet) -> None:
        for tap in self.taps:
            tap(event, packet)

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------
    def send(self, packet: Packet) -> bool:
        """Originate ``packet`` from this node.

        Returns True if a first hop accepted the packet.
        """
        # Origination is the first hop, so the loop/budget check done by
        # record_hop cannot trip here; a bare append keeps the
        # per-segment send path one call shorter.
        packet.hops.append(self.name)
        self.stats.sent += 1
        if self.taps:
            self._notify("send", packet)
        return self._route(packet)

    def deliver(self, packet: Packet) -> None:
        """Entry point for packets arriving on an incoming link."""
        if packet.dst == self.name:
            self.stats.received += 1
            if self.taps:
                self._notify("recv", packet)
            handler = self.protocol_handlers.get(packet.protocol)
            if handler is None:
                self.stats.dropped_no_handler += 1
                self._notify("drop", packet)
                return
            handler(packet)
        else:
            packet.record_hop(self.name)
            self.stats.forwarded += 1
            if self.taps:
                self._notify("forward", packet)
            self._route(packet)

    def _route(self, packet: Packet) -> bool:
        next_hop = self.routes.get(packet.dst)
        if next_hop is None:
            # Directly connected destinations need no routing table entry.
            if packet.dst in self.links:
                next_hop = packet.dst
            else:
                self.stats.dropped_no_route += 1
                self._notify("drop", packet)
                return False
        link = self.links.get(next_hop)
        if link is None:
            self.stats.dropped_no_route += 1
            self._notify("drop", packet)
            return False
        return link.send(packet)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<Node %s links=%d>" % (self.name, len(self.links))
