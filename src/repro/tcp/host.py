"""Per-node TCP stack.

:class:`TcpHost` binds to a :class:`repro.net.node.Node`, registers itself
as the node's ``"tcp"`` protocol handler, and demultiplexes incoming
segments to connections by flow key.  It provides the two socket-style
entry points used by everything above it:

* :meth:`connect` — active open toward a remote endpoint;
* :meth:`listen` — passive open; an application factory is invoked for
  every accepted connection.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.net.address import Endpoint, EphemeralPortAllocator, FlowKey
from repro.net.node import Node
from repro.net.packet import Packet
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams, derive_seed
from repro.tcp.config import TcpConfig
from repro.tcp.congestion import CongestionController
from repro.tcp.connection import Connection, TcpApp
from repro.tcp.segment import Segment

AppFactory = Callable[[], TcpApp]

#: Initial sequence numbers are drawn modulo this space.  Kept well
#: below 2**32 so tests can do signed arithmetic on raw sequence
#: numbers without wraparound; exported for the session-replay cache,
#: which re-derives per-flow ISNs when materializing a cached timeline.
ISN_SPACE = 1 << 24


class TcpHost:
    """The TCP stack of a single simulated host."""

    def __init__(self, sim: Simulator, node: Node,
                 config: Optional[TcpConfig] = None,
                 streams: Optional[RandomStreams] = None):
        self.sim = sim
        self.node = node
        self.config = config or TcpConfig()
        self.streams = streams or RandomStreams(0)
        self.connections: Dict[FlowKey, Connection] = {}
        # Fast demux index: (local_port, remote_host, remote_port) ->
        # Connection.  Plain int/str tuples hash far cheaper than the
        # nested frozen-dataclass FlowKey, and _receive runs per packet.
        self._flows: Dict[tuple, Connection] = {}
        self.listeners: Dict[int, AppFactory] = {}
        self.listener_configs: Dict[int, TcpConfig] = {}
        self._ports = EphemeralPortAllocator()
        node.register_protocol("tcp", self._receive)

    # ------------------------------------------------------------------
    # socket API
    # ------------------------------------------------------------------
    def listen(self, port: int, factory: AppFactory,
               config: Optional[TcpConfig] = None) -> None:
        """Accept connections on ``port``; each gets ``factory()`` as app."""
        if port in self.listeners:
            raise ValueError("port %d already listening on %s"
                             % (port, self.node.name))
        self.listeners[port] = factory
        if config is not None:
            self.listener_configs[port] = config

    def connect(self, remote: Endpoint, app: TcpApp,
                local_port: Optional[int] = None,
                config: Optional[TcpConfig] = None,
                controller: Optional[CongestionController] = None
                ) -> Connection:
        """Open a connection to ``remote`` and return it immediately.

        ``app.on_established`` fires when the handshake completes.
        """
        port = local_port if local_port is not None else self._ports.allocate()
        flow = FlowKey(Endpoint(self.node.name, port), remote)
        if flow in self.connections:
            raise ValueError("flow already exists: %s" % flow)
        conn = Connection(self, flow, app, config or self.config,
                          controller=controller)
        self.connections[flow] = conn
        self._flows[self._flow_index(flow)] = conn
        conn.open_active()
        return conn

    @staticmethod
    def _flow_index(flow: FlowKey) -> tuple:
        return (flow.local.port, flow.remote.host, flow.remote.port)

    def reserve_port(self) -> int:
        """Allocate (and consume) the next ephemeral port without opening
        a connection.

        The query emulator reserves each session's port when it opens
        the session, before :meth:`connect`, so its capture is open
        before the SYN leaves.  A session served without simulation
        burns its port the same way, keeping port-allocation order
        identical to the full simulation it stands in for.
        """
        return self._ports.allocate()

    def release_port(self, port: int) -> None:
        """Return a port taken with :meth:`reserve_port` whose session
        ended without a connection to :meth:`forget`."""
        self._ports.release(port)

    def forget(self, conn: Connection) -> None:
        """Release a closed connection's flow state and ephemeral port."""
        self.connections.pop(conn.flow, None)
        self._flows.pop(self._flow_index(conn.flow), None)
        if conn.flow.local.port >= EphemeralPortAllocator.FIRST:
            self._ports.release(conn.flow.local.port)

    # ------------------------------------------------------------------
    # demux
    # ------------------------------------------------------------------
    def _receive(self, packet: Packet) -> None:
        segment = packet.payload
        if not isinstance(segment, Segment):
            return
        conn = self._flows.get((segment.dport, packet.src, segment.sport))
        if conn is not None:
            conn.handle_segment(segment)
            return
        if segment.syn and not segment.ack_flag:
            factory = self.listeners.get(segment.dport)
            if factory is not None:
                flow = FlowKey(Endpoint(self.node.name, segment.dport),
                               Endpoint(packet.src, segment.sport))
                self._accept(flow, segment, factory)
                return
        # No matching flow or listener: silently drop (a real stack would
        # send RST; nothing in the reproduction depends on it).

    def _accept(self, flow: FlowKey, syn: Segment,
                factory: AppFactory) -> None:
        app = factory()
        config = self.listener_configs.get(flow.local.port, self.config)
        conn = Connection(self, flow, app, config, passive=True)
        self.connections[flow] = conn
        self._flows[self._flow_index(flow)] = conn
        conn._open_passive(syn)

    # ------------------------------------------------------------------
    def next_isn(self, flow: FlowKey) -> int:
        """Deterministic per-flow initial sequence number."""
        seed = derive_seed(self.streams.seed, "isn/%s" % flow)
        return seed % ISN_SPACE
