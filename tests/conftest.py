"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.net.topology import Topology
from repro.sim import units
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.tcp.config import TcpConfig
from repro.tcp.host import TcpHost


class TwoHostWorld:
    """A minimal client/server network for transport-layer tests."""

    def __init__(self, *, rtt: float = units.ms(40),
                 bandwidth: float = units.mbps(100),
                 loss_rate: float = 0.0,
                 seed: int = 0,
                 client_config: TcpConfig = None,
                 server_config: TcpConfig = None):
        self.sim = Simulator()
        self.streams = RandomStreams(seed)
        self.topology = Topology(self.sim, self.streams)
        self.topology.add_node("client")
        self.topology.add_node("server")
        self.topology.connect("client", "server", delay=rtt / 2.0,
                              bandwidth=bandwidth, loss_rate=loss_rate)
        self.client = TcpHost(self.sim, self.topology.node("client"),
                              client_config or TcpConfig(),
                              self.streams)
        self.server = TcpHost(self.sim, self.topology.node("server"),
                              server_config or TcpConfig(),
                              self.streams)

    def run(self, until: float = 120.0) -> None:
        self.sim.run(until=until)


@pytest.fixture
def two_hosts():
    """Default lossless 40 ms-RTT client/server world."""
    return TwoHostWorld()


def make_world(**kwargs) -> TwoHostWorld:
    """Factory for tests needing custom parameters."""
    return TwoHostWorld(**kwargs)
