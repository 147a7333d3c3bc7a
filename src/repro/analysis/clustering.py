"""Temporal clustering of packet-level events.

Figure 4 of the paper plots per-session packet timelines and observes
that, at small RTT, events form three clear temporal clusters — the TCP
handshake, the static-content delivery, and the dynamic-content delivery
— and that the gap between the last two shrinks as RTT grows until they
merge.  This module implements that clustering: events are grouped
greedily by inter-arrival gap (bursts within one window arrive
~back-to-back; separate windows are ~an RTT apart).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.measure.capture import PacketEvent


@dataclass
class EventCluster:
    """A temporally contiguous burst of packet events."""

    events: List[PacketEvent] = field(default_factory=list)


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
