"""Network nodes.

A :class:`Node` owns its outgoing links, keyed by neighbour, and one
receiver: the :class:`~repro.tcp.host.TcpHost` bound to it.  Every path
the simulator builds is one link, as in the paper, where a client
reaches its front-end, and a front-end its back-end, over one path with
one RTT; so a segment goes straight onto the link toward its destination
host, and sending toward a host with no link from this one raises.

A node also keeps a list of *taps*, observers that see every segment it
sends or receives.  The packet capture used by the measurement emulator
is one, so analysis code sees exactly what a tcpdump at that host would
see.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.net.geo import GeoPoint
from repro.net.link import Link
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.tcp.segment import Segment

#: A tap is called as ``tap(direction, segment)``: ``"out"`` when the
#: node sends the segment, ``"in"`` when it receives it.
TapFn = Callable[[str, "Segment"], None]


class Node:
    """A host in the simulated network."""

    def __init__(self, sim: Simulator, name: str,
                 location: Optional[GeoPoint] = None):
        if not name:
            raise ValueError("node name must be non-empty")
        self.sim = sim
        self.name = name
        self.location = location
        self.links: Dict[str, Link] = {}
        self.taps: List[TapFn] = []
        #: Called with every segment that arrives; the node's TcpHost
        #: binds itself here.
        self.receiver: Optional[Callable[["Segment"], None]] = None

    def attach_link(self, neighbor: str, link: Link) -> None:
        """Register the outgoing ``link`` toward ``neighbor``."""
        if neighbor in self.links:
            raise ValueError("%s already has a link to %s" % (self.name, neighbor))
        self.links[neighbor] = link

    def add_tap(self, tap: TapFn) -> None:
        """Attach a segment observer called as ``tap(direction, segment)``."""
        self.taps.append(tap)

    def send(self, segment: "Segment") -> bool:
        """Put ``segment`` on the link toward ``segment.dst``.

        Returns False if the link tail-dropped it.
        """
        for tap in self.taps:
            tap("out", segment)
        link = self.links.get(segment.dst)
        if link is None:
            raise ValueError("%s has no link to %s"
                             % (self.name, segment.dst))
        return link.send(segment)

    def deliver(self, segment: "Segment") -> None:
        """Entry point for segments arriving on an incoming link."""
        for tap in self.taps:
            tap("in", segment)
        self.receiver(segment)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<Node %s links=%d>" % (self.name, len(self.links))
