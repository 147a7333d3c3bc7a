"""Per-node TCP stack.

:class:`TcpHost` binds itself as the receiver of one
:class:`repro.net.node.Node` (TCP is the only transport, so a node has
one stack, and a second one raises) and demultiplexes incoming segments
to connections by local port, remote host and remote port.  It provides
the two socket-style entry points used by everything above it:

* :meth:`connect` — active open toward a remote endpoint;
* :meth:`listen` — passive open; an application factory is invoked for
  every accepted connection.

A host also has one optional :attr:`~TcpHost.capture` hook, which sees
every segment the host sends or receives; the client's packet capture
(:class:`repro.measure.capture.PacketCapture`) attaches there.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.net.address import Endpoint, EphemeralPortAllocator, FlowKey
from repro.net.node import Node
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams, derive_seed
from repro.tcp.config import TcpConfig
from repro.tcp.congestion import CongestionController
from repro.tcp.connection import Connection, TcpApp
from repro.tcp.segment import Segment

AppFactory = Callable[[], TcpApp]

#: A capture hook is called as ``capture(direction, segment)``: ``"out"``
#: as the host sends the segment, ``"in"`` as it receives it.
CaptureFn = Callable[[str, Segment], None]

#: Initial sequence numbers are drawn modulo this space.  Kept well
#: below 2**32 so tests can do signed arithmetic on raw sequence
#: numbers without wraparound.
ISN_SPACE = 1 << 24


class TcpHost:
    """The TCP stack of a single simulated host."""

    def __init__(self, sim: Simulator, node: Node,
                 config: Optional[TcpConfig] = None,
                 streams: Optional[RandomStreams] = None):
        if node.receiver is not None:
            raise ValueError("node %s already has a TCP host" % node.name)
        self.sim = sim
        self.node = node
        self.config = config or TcpConfig()
        self.streams = streams or RandomStreams(0)
        #: Open connections by (local port, remote host, remote port):
        #: plain tuples hash far cheaper than the nested frozen-dataclass
        #: FlowKey, and _receive looks one up per packet.
        self.connections: Dict[Tuple[int, str, int], Connection] = {}
        self.listeners: Dict[int, AppFactory] = {}
        self._ports = EphemeralPortAllocator()
        #: Sees every segment this host sends or receives, if set.
        self.capture: Optional[CaptureFn] = None
        node.receiver = self._receive

    # ------------------------------------------------------------------
    # socket API
    # ------------------------------------------------------------------
    def listen(self, port: int, factory: AppFactory) -> None:
        """Accept connections on ``port``; each gets ``factory()`` as app."""
        if port in self.listeners:
            raise ValueError("port %d already listening on %s"
                             % (port, self.node.name))
        self.listeners[port] = factory

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
        key = self._flow_index(flow)
        if key in self.connections:
            raise ValueError("flow already exists: %s" % flow)
        conn = Connection(self, flow, app, config or self.config,
                          controller=controller)
        self.connections[key] = conn
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
        self.connections.pop(self._flow_index(conn.flow), None)
        if conn.flow.local.port >= EphemeralPortAllocator.FIRST:
            self._ports.release(conn.flow.local.port)

    # ------------------------------------------------------------------
    # demux
    # ------------------------------------------------------------------
    def _receive(self, segment: Segment) -> None:
        capture = self.capture
        if capture is not None:
            capture("in", segment)
        conn = self.connections.get((segment.dport, segment.src,
                                     segment.sport))
        if conn is not None:
            conn.handle_segment(segment)
            return
        if segment.syn and not segment.ack_flag:
            factory = self.listeners.get(segment.dport)
            if factory is not None:
                flow = FlowKey(Endpoint(self.node.name, segment.dport),
                               Endpoint(segment.src, segment.sport))
                self._accept(flow, segment, factory)
                return
        # No matching flow or listener: silently drop (a real stack would
        # send RST; nothing in the reproduction depends on it).

    def _accept(self, flow: FlowKey, syn: Segment,
                factory: AppFactory) -> None:
        app = factory()
        conn = Connection(self, flow, app, self.config, passive=True)
        self.connections[self._flow_index(flow)] = conn
        conn._open_passive(syn)

    # ------------------------------------------------------------------
    def next_isn(self, flow: FlowKey) -> int:
        """Deterministic per-flow initial sequence number."""
        return flow_isn(self.streams.seed, flow.local.host,
                        flow.local.port, flow.remote.host, flow.remote.port)


def flow_isn(root_seed: int, local_host: str, local_port: int,
             remote_host: str, remote_port: int) -> int:
    """The initial sequence number the ``local`` end of a flow sends.

    A pure function of the seed and the flow key, formatted as
    ``str(FlowKey)`` would be, so a session served without simulation
    derives the ISNs its connection would have drawn from the host and
    port fields at hand, without building the key.
    """
    flow = "%s:%d <-> %s:%d" % (local_host, local_port, remote_host,
                                remote_port)
    seed = derive_seed(root_seed, "isn/%s" % flow)
    return seed % ISN_SPACE
