"""Temporal clustering of packet-level events.

Figure 4 of the paper plots per-session packet timelines and observes
that, at small RTT, events form three clear temporal clusters — the TCP
handshake, the static-content delivery, and the dynamic-content delivery
— and that the gap between the last two shrinks as RTT grows until they
merge.  This module implements that clustering: events are grouped
greedily by inter-arrival gap, with the gap threshold adapting to the
session's RTT (bursts within one window arrive ~back-to-back; separate
windows are ~an RTT apart).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.measure.capture import PacketEvent
from repro.measure.session import QuerySession


@dataclass
class EventCluster:
    """A temporally contiguous burst of packet events."""

    events: List[PacketEvent] = field(default_factory=list)

    @property
    def start(self) -> float:
        return self.events[0].time

    @property
    def end(self) -> float:
        return self.events[-1].time

    @property
    def span(self) -> float:
        return self.end - self.start

    @property
    def payload_bytes(self) -> int:
        return sum(e.payload_len for e in self.events)

    @property
    def has_handshake(self) -> bool:
        return any(e.syn for e in self.events)


def cluster_by_gap(events: Sequence[PacketEvent],
                   gap: float) -> List[EventCluster]:
    """Split a time-ordered event sequence wherever the inter-event gap
    exceeds ``gap`` seconds."""
    if gap <= 0:
        raise ValueError("gap must be positive")
    clusters: List[EventCluster] = []
    current: Optional[EventCluster] = None
    last_time = None
    for event in events:
        if current is None or (last_time is not None
                               and event.time - last_time > gap):
            current = EventCluster()
            clusters.append(current)
        current.events.append(event)
        last_time = event.time
    return clusters


def handshake_rtt(session: QuerySession) -> float:
    """RTT measured from the SYN / SYN-ACK exchange of the session."""
    syn_time = None
    for event in session.events:
        if event.direction == "out" and event.syn:
            syn_time = event.time
        elif (event.direction == "in" and event.syn and event.ack_flag
              and syn_time is not None):
            return event.time - syn_time
    raise ValueError("session %s has no complete handshake"
                     % session.query_id)


def adaptive_gap(session: QuerySession, floor: float = 0.004) -> float:
    """A gap threshold separating windows without splitting bursts.

    Within a delivery burst, packets are spaced by serialization delay
    (sub-millisecond here); across windows or content parts, by ~RTT or a
    back-end fetch.  Half an RTT, floored for tiny-RTT sessions, divides
    the two regimes cleanly.
    """
    return max(floor, handshake_rtt(session) * 0.5)


@dataclass(frozen=True)
class SessionClusters:
    """The Figure-4 view of one session."""

    handshake: EventCluster
    bursts: List[EventCluster]      # inbound data bursts, in time order
    gap_after_first_burst: float    # candidate Tdelta when bursts >= 2

    @property
    def merged(self) -> bool:
        """True when static and dynamic arrived as a single burst."""
        return len(self.bursts) < 2


def classify_session(session: QuerySession,
                     gap: Optional[float] = None) -> SessionClusters:
    """Cluster a session's packets into handshake + data bursts.

    Mirrors the paper's reading of Figure 4: the first cluster is the
    three-way handshake (plus the GET), subsequent inbound-data clusters
    are content bursts.  With a large client-FE RTT the static and
    dynamic bursts merge into one — ``SessionClusters.merged``.
    """
    if gap is None:
        gap = adaptive_gap(session)
    inbound_data = session.inbound_data_events()
    if not inbound_data:
        raise ValueError("session %s delivered no data" % session.query_id)
    handshake_events = [e for e in session.events
                        if e.syn or (e.direction == "out"
                                     and e.payload_len > 0
                                     and e.time < inbound_data[0].time)]
    handshake = EventCluster(events=list(handshake_events))
    bursts = cluster_by_gap(inbound_data, gap)
    if len(bursts) >= 2:
        gap_after_first = bursts[1].start - bursts[0].end
    else:
        gap_after_first = 0.0
    return SessionClusters(handshake=handshake, bursts=bursts,
                           gap_after_first_burst=gap_after_first)
