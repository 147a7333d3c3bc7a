"""Network nodes.

A :class:`Node` owns its outgoing links, keyed by neighbour, and one
receiver: the :class:`~repro.tcp.host.TcpHost` bound to it.  Every path
the simulator builds is one link, as in the paper, where a client
reaches its front-end, and a front-end its back-end, over one path with
one RTT.  A connection resolves the link toward its peer once, when it
opens, and sends on it directly; the link hands each arriving segment
to the far node's receiver.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional

from repro.net.geo import GeoPoint
from repro.net.link import Link
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.tcp.segment import Segment


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
        #: Called with every segment that arrives; the node's TcpHost
        #: binds itself here.
        self.receiver: Optional[Callable[["Segment"], None]] = None

    def attach_link(self, neighbor: str, link: Link) -> None:
        """Register the outgoing ``link`` toward ``neighbor``."""
        if neighbor in self.links:
            raise ValueError("%s already has a link to %s" % (self.name, neighbor))
        self.links[neighbor] = link

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<Node %s links=%d>" % (self.name, len(self.links))
