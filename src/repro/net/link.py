"""Unidirectional network links.

A :class:`Link` models the one-way path between two nodes as:

* a FIFO transmit queue drained at ``bandwidth`` bytes/second (fluid
  model: the queue is represented by a ``busy_until`` horizon, so
  back-to-back packets serialize correctly — this is what makes the
  paper's "temporal clusters of packet events" (Fig. 4) visible);
* a fixed propagation ``delay``;
* optional Bernoulli packet loss;
* optional per-packet jitter, modelling path variability beyond queuing;
* tail drop when the queue backlog exceeds ``queue_limit_bytes``.

What crosses a link is a :class:`~repro.tcp.segment.Segment`, whose
``size_bytes`` is its on-wire size.  A path is two independent ``Link``
objects, one per direction (see :meth:`repro.net.topology.Topology.connect`).
A link schedules each arrival as a call of its far node's receiver, the
:class:`~repro.tcp.host.TcpHost` bound there, so a segment crosses a hop
in one call of :meth:`Link.send` and one engine event.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.obs import runtime as _obs
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.node import Node
    from repro.tcp.segment import Segment

#: Signature of a deterministic fault filter: called with the segment and
#: its 0-based offer index on this link; returning True drops it.
FaultFilter = Callable[["Segment", int], bool]


@dataclass
class LinkStats:
    """Fault counters maintained by every link."""

    packets_lost: int = 0
    packets_dropped_queue: int = 0


class Link:
    """A unidirectional link between two nodes.

    Parameters
    ----------
    sim:
        The simulator driving the link.
    name:
        Human-readable identifier, also used to name the loss and jitter
        RNG streams.
    delay:
        One-way propagation delay in seconds.
    bandwidth:
        Serialization rate in bytes per second.
    dst:
        The node at the far end: each segment that arrives is handed to
        ``dst.receiver``, read when the segment is sent.
    loss_rate:
        Independent per-packet drop probability in [0, 1].
    jitter:
        If positive, each packet receives an extra uniform(0, jitter)
        seconds of delay.  Jitter is bounded so FIFO ordering can be
        violated only across, never within, a serialization burst; to keep
        the transport simple we re-impose ordering by clamping each
        delivery to be no earlier than the previous one.
    queue_limit_bytes:
        Maximum backlog; packets that would exceed it are tail-dropped.
    streams:
        RNG registry; loss and jitter draw from the streams
        ``"loss/<name>"`` and ``"jitter/<name>"``, each taken once, on
        the first packet that needs it.

    A failure-injection test sets ``fault_filter``, a deterministic drop
    rule ``fn(segment, offer_index) -> bool`` (e.g. "drop the 7th data
    packet").  Faulted packets count as random losses in the stats.
    """

    def __init__(self, sim: Simulator, name: str, *,
                 delay: float,
                 bandwidth: float,
                 dst: "Node",
                 loss_rate: float = 0.0,
                 jitter: float = 0.0,
                 queue_limit_bytes: int = 4 * 1024 * 1024,
                 streams: Optional[RandomStreams] = None):
        if delay < 0:
            raise ValueError("delay must be >= 0, got %r" % delay)
        if bandwidth <= 0:
            raise ValueError("bandwidth must be > 0, got %r" % bandwidth)
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1), got %r" % loss_rate)
        if jitter < 0:
            raise ValueError("jitter must be >= 0, got %r" % jitter)
        if queue_limit_bytes <= 0:
            raise ValueError("queue_limit_bytes must be > 0")
        self.sim = sim
        self.name = name
        self.delay = delay
        self.bandwidth = bandwidth
        self.loss_rate = loss_rate
        self.jitter = jitter
        self.queue_limit_bytes = queue_limit_bytes
        self.dst = dst
        self.streams = streams or RandomStreams(0)
        self.fault_filter: Optional[FaultFilter] = None
        self.stats = LinkStats()
        self._busy_until = 0.0
        self._last_delivery_time = 0.0
        self._offer_index = 0
        self._loss_rng: Optional[random.Random] = None
        self._jitter_rng: Optional[random.Random] = None

    # ------------------------------------------------------------------
    def send(self, segment: "Segment") -> bool:
        """Offer ``segment`` to the link and schedule its arrival.

        Returns True if the segment was accepted (it may still be lost in
        flight), False if it was tail-dropped at the queue.
        """
        offer_index = self._offer_index
        self._offer_index = offer_index + 1

        # send() runs once per packet, so the queue backlog and the
        # transmission delay are computed inline, and the clock is read
        # through the engine's storage attribute (``now`` is a property).
        sim = self.sim
        now = sim._now
        busy = self._busy_until
        size = segment.size_bytes
        bandwidth = self.bandwidth
        backlog = busy - now
        backlog = backlog * bandwidth if backlog > 0.0 else 0.0
        if backlog + size > self.queue_limit_bytes:
            self.stats.packets_dropped_queue += 1
            if _obs.enabled:
                _obs.metrics.inc("link.packets_dropped_queue")
            return False

        start = busy if busy > now else now
        tx_done = start + size / bandwidth
        self._busy_until = tx_done

        if self.fault_filter is not None and \
                self.fault_filter(segment, offer_index):
            self.stats.packets_lost += 1
            if _obs.enabled:
                _obs.metrics.inc("link.packets_lost")
            return True

        loss_rate = self.loss_rate
        if loss_rate:
            rng = self._loss_rng
            if rng is None:
                rng = self._loss_rng = self.streams.get("loss/" + self.name)
            if rng.random() < loss_rate:
                # The packet still occupied the wire (busy_until already
                # advanced) but never arrives.
                self.stats.packets_lost += 1
                if _obs.enabled:
                    _obs.metrics.inc("link.packets_lost")
                return True

        arrival = tx_done + self.delay
        jitter = self.jitter
        if jitter:
            rng = self._jitter_rng
            if rng is None:
                rng = self._jitter_rng = self.streams.get(
                    "jitter/" + self.name)
            # uniform(0, jitter) draws 0.0 + (jitter - 0.0) * random():
            # the same float as this product.
            arrival += jitter * rng.random()
        # Clamp to preserve FIFO delivery despite jitter.
        if arrival < self._last_delivery_time:
            arrival = self._last_delivery_time
        self._last_delivery_time = arrival
        sim.call_at(arrival, self.dst.receiver, segment)
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<Link %s delay=%.4fs bw=%.0fB/s loss=%.3g>" % (
            self.name, self.delay, self.bandwidth, self.loss_rate)
