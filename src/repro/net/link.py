"""Unidirectional network links.

A :class:`Link` models the path between two adjacent nodes as:

* a FIFO transmit queue drained at ``bandwidth`` bytes/second (fluid
  model: the queue is represented by a ``busy_until`` horizon, so
  back-to-back packets serialize correctly — this is what makes the
  paper's "temporal clusters of packet events" (Fig. 4) visible);
* a fixed propagation ``delay``;
* optional Bernoulli packet loss;
* optional per-packet jitter, modelling path variability beyond queuing;
* tail drop when the queue backlog exceeds ``queue_limit_bytes``.

Bidirectional connectivity is built from two independent ``Link`` objects
(see :class:`repro.net.topology.Topology`), which allows asymmetric paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.net.packet import Packet
from repro.obs import runtime as _obs
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams

#: Signature of a deterministic fault filter: called with the packet and
#: its 0-based offer index on this link; returning True drops the packet.
FaultFilter = Callable[[Packet, int], bool]


@dataclass
class LinkStats:
    """Counters maintained by every link."""

    packets_offered: int = 0
    packets_delivered: int = 0
    packets_lost: int = 0
    packets_dropped_queue: int = 0
    bytes_delivered: int = 0

    @property
    def loss_fraction(self) -> float:
        """Fraction of offered packets lost to random loss."""
        if self.packets_offered == 0:
            return 0.0
        return self.packets_lost / self.packets_offered


class Link:
    """A unidirectional link between two nodes.

    Parameters
    ----------
    sim:
        The simulator driving the link.
    name:
        Human-readable identifier, also used to derive the loss RNG stream.
    delay:
        One-way propagation delay in seconds.
    bandwidth:
        Serialization rate in bytes per second.
    deliver:
        Callback invoked as ``deliver(packet)`` when a packet arrives at
        the far end.
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
        RNG registry; loss and jitter draw from streams named after the link.
    fault_filter:
        Optional deterministic drop rule ``fn(packet, offer_index) ->
        bool`` for failure-injection tests (e.g. "drop the 7th data
        packet").  Faulted packets count as random losses in the stats.
    """

    def __init__(self, sim: Simulator, name: str, *,
                 delay: float,
                 bandwidth: float,
                 deliver: Callable[[Packet], None],
                 loss_rate: float = 0.0,
                 jitter: float = 0.0,
                 queue_limit_bytes: int = 4 * 1024 * 1024,
                 streams: Optional[RandomStreams] = None,
                 fault_filter: Optional[FaultFilter] = None):
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
        self.deliver = deliver
        self.streams = streams or RandomStreams(0)
        self.fault_filter = fault_filter
        self.stats = LinkStats()
        self._busy_until = 0.0
        self._last_delivery_time = 0.0
        self._offer_index = 0

    # ------------------------------------------------------------------
    def transmission_delay(self, packet: Packet) -> float:
        """Serialization time for ``packet`` on this link."""
        return packet.size_bytes / self.bandwidth

    # ------------------------------------------------------------------
    def send(self, packet: Packet) -> bool:
        """Offer ``packet`` to the link.

        Returns True if the packet was accepted (it may still be lost in
        flight), False if it was tail-dropped at the queue.
        """
        offer_index = self._offer_index
        self._offer_index = offer_index + 1
        stats = self.stats
        stats.packets_offered += 1

        # Inline the queue backlog and transmission_delay: send() runs
        # once per packet per hop, and the method calls showed up in
        # campaign profiles.  The clock is read through the engine's
        # storage attribute for the same reason (``now`` is a property).
        sim = self.sim
        now = sim._now
        busy = self._busy_until
        size = packet.size_bytes
        bandwidth = self.bandwidth
        backlog = busy - now
        backlog = backlog * bandwidth if backlog > 0.0 else 0.0
        if backlog + size > self.queue_limit_bytes:
            stats.packets_dropped_queue += 1
            if _obs.enabled:
                _obs.metrics.inc("link.packets_dropped_queue")
            return False

        start = busy if busy > now else now
        tx_done = start + size / bandwidth
        self._busy_until = tx_done

        if self.fault_filter is not None and \
                self.fault_filter(packet, offer_index):
            stats.packets_lost += 1
            if _obs.enabled:
                _obs.metrics.inc("link.packets_lost")
            return True

        if self.loss_rate and self.streams.bernoulli(
                "loss/" + self.name, self.loss_rate):
            # The packet still occupied the wire (busy_until already
            # advanced) but never arrives.
            stats.packets_lost += 1
            if _obs.enabled:
                _obs.metrics.inc("link.packets_lost")
            return True

        arrival = tx_done + self.delay
        if self.jitter:
            arrival += self.streams.uniform("jitter/" + self.name,
                                            0.0, self.jitter)
        # Clamp to preserve FIFO delivery despite jitter.
        if arrival < self._last_delivery_time:
            arrival = self._last_delivery_time
        self._last_delivery_time = arrival
        sim.call_at(arrival, self._arrive, packet)
        return True

    def _arrive(self, packet: Packet) -> None:
        stats = self.stats
        stats.packets_delivered += 1
        stats.bytes_delivered += packet.size_bytes
        self.deliver(packet)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<Link %s delay=%.4fs bw=%.0fB/s loss=%.3g>" % (
            self.name, self.delay, self.bandwidth, self.loss_rate)
