"""Query sessions: the unit of measurement.

One :class:`QuerySession` is everything the study records about a single
search query issued from a single vantage point: metadata (service, FE,
keyword, query id), application-level outcome, and the packet-level trace
slice of the query's TCP connection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.content.keywords import Keyword
from repro.measure.capture import PacketEvent


@dataclass
class QuerySession:
    """One emulated search query and its captured trace."""

    query_id: str
    service: str
    vp_name: str
    fe_name: str
    keyword: Keyword
    local_port: int = 0
    started_at: float = 0.0
    completed_at: Optional[float] = None
    failed: Optional[str] = None
    response_size: int = 0
    #: Packet events of this query's connection (client viewpoint).
    events: List[PacketEvent] = field(default_factory=list)
    #: Round-trip propagation delay client<->FE for this session's path.
    path_rtt: Optional[float] = None

    @property
    def complete(self) -> bool:
        return self.completed_at is not None and self.failed is None

    @property
    def duration(self) -> Optional[float]:
        """Wall-clock duration from connection open to response end."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.started_at

    def inbound_data_events(self) -> List[PacketEvent]:
        """Inbound packets carrying payload, in arrival order."""
        return [e for e in self.events
                if e.direction == "in" and e.payload_len > 0]

    def outbound_events(self) -> List[PacketEvent]:
        return [e for e in self.events if e.direction == "out"]
