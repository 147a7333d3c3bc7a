"""Topology assembly.

:class:`Topology` is the one-stop builder used by the testbed layer: it
creates nodes and wires each pair that talks with one bidirectional path
(a pair of unidirectional links), with a delay derived either from
explicit parameters or from node geography.  Every path is direct, as in
the paper, so a path's delay is its link's.

A link's one-way propagation delay is the explicit ``delay=`` argument
or, without one, follows the great-circle distance between the two
nodes' locations.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.net.geo import GeoPoint
from repro.net.link import Link
from repro.net.node import Node
from repro.sim import units
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams


class Topology:
    """A mutable collection of nodes and the links between them."""

    def __init__(self, sim: Simulator,
                 streams: Optional[RandomStreams] = None):
        self.sim = sim
        self.streams = streams or RandomStreams(0)
        self.nodes: Dict[str, Node] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, name: str,
                 location: Optional[GeoPoint] = None) -> Node:
        """Create and register a node.  Names must be unique."""
        if name in self.nodes:
            raise ValueError("duplicate node name %r" % name)
        node = Node(self.sim, name, location)
        self.nodes[name] = node
        return node

    def node(self, name: str) -> Node:
        """Look up a node by name."""
        try:
            return self.nodes[name]
        except KeyError:
            raise KeyError("unknown node %r" % name) from None

    def connect(self, a: str, b: str, *,
                delay: Optional[float] = None,
                bandwidth: float = units.mbps(100),
                loss_rate: float = 0.0,
                jitter: float = 0.0,
                route_inflation: float = units.DEFAULT_ROUTE_INFLATION
                ) -> Tuple[Link, Link]:
        """Create a symmetric bidirectional connection between two nodes.

        Returns the ``(a->b, b->a)`` link pair.
        """
        node_a, node_b = self.node(a), self.node(b)
        resolved = self._resolve_delay(node_a, node_b, delay,
                                       route_inflation)
        params = dict(delay=resolved, bandwidth=bandwidth,
                      loss_rate=loss_rate, jitter=jitter)
        return (self._make_link(node_a, node_b, **params),
                self._make_link(node_b, node_a, **params))

    def _resolve_delay(self, node_a: Node, node_b: Node,
                       delay: Optional[float],
                       route_inflation: float) -> float:
        if delay is not None:
            return delay
        if node_a.location is not None and node_b.location is not None:
            return node_a.location.one_way_delay(node_b.location,
                                                 route_inflation)
        raise ValueError(
            "connect(%s, %s): need delay= or node locations"
            % (node_a.name, node_b.name))

    def _make_link(self, src: Node, dst: Node, **params) -> Link:
        link = Link(self.sim, "%s->%s" % (src.name, dst.name),
                    dst=dst, streams=self.streams, **params)
        src.attach_link(dst.name, link)
        return link

    # ------------------------------------------------------------------
    # path delays
    # ------------------------------------------------------------------
    def path_delay(self, a: str, b: str) -> float:
        """One-way propagation delay of the link a -> b."""
        link = self.node(a).links.get(b)
        if link is None:
            raise ValueError("no link from %r to %r" % (a, b))
        return link.delay

    def rtt(self, a: str, b: str) -> float:
        """Round-trip propagation delay between two nodes."""
        return self.path_delay(a, b) + self.path_delay(b, a)
