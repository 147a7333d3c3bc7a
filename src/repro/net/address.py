"""Network addressing primitives.

Hosts are identified by string names (e.g. ``"planetlab-042"``,
``"fe-akamai-chicago"``); transport endpoints add a port number.  String
names keep traces human-readable, which matters because the analysis
pipeline is meant to feel like reading a tcpdump.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class Endpoint:
    """A transport-layer endpoint: ``host:port``."""

    host: str
    port: int

    def __post_init__(self):
        if not self.host:
            raise ValueError("host name must be non-empty")
        if not 0 < self.port < 65536:
            raise ValueError("port must be in (0, 65536), got %r" % (self.port,))

    def __str__(self) -> str:
        return "%s:%d" % (self.host, self.port)


@dataclass(frozen=True, order=True)
class FlowKey:
    """Canonical identifier of a bidirectional transport flow.

    The key is ordered (local, remote) from the perspective of the host
    storing it; :meth:`reversed` gives the peer's view of the same flow.
    """

    local: Endpoint
    remote: Endpoint

    def __str__(self) -> str:
        return "%s <-> %s" % (self.local, self.remote)


class EphemeralPortAllocator:
    """Sequential ephemeral port allocation for a single host.

    Ports wrap within the IANA ephemeral range; the allocator never hands
    out a port currently marked in use.
    """

    FIRST = 49152
    LAST = 65535

    def __init__(self):
        self._next = self.FIRST
        self._in_use = set()

    def allocate(self) -> int:
        """Return an unused ephemeral port and mark it in use."""
        span = self.LAST - self.FIRST + 1
        for _ in range(span):
            port = self._next
            self._next += 1
            if self._next > self.LAST:
                self._next = self.FIRST
            if port not in self._in_use:
                self._in_use.add(port)
                return port
        raise RuntimeError("ephemeral port space exhausted")

    def release(self, port: int) -> None:
        """Return ``port`` to the pool.  Unknown ports are ignored."""
        self._in_use.discard(port)
