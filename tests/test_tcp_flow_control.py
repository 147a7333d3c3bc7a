"""TCP flow-control and configuration behaviour tests."""

import pytest

from repro.net.address import Endpoint
from repro.sim import units
from repro.tcp.config import TcpConfig

from .conftest import make_world
from .helpers import CollectorApp, EchoServerApp, RespondApp, make_payload

RTT = units.ms(50)


def test_small_receive_window_limits_throughput():
    """A tiny advertised window caps in-flight data per RTT."""
    small_rwnd = TcpConfig(receive_window_bytes=4 * 1460)
    big_rwnd = TcpConfig(receive_window_bytes=1 << 20)
    durations = {}
    payload = make_payload(120_000)
    for name, config in (("small", small_rwnd), ("big", big_rwnd)):
        # The receiver's advertised window is modelled by the *sender's*
        # peer_rwnd, which comes from its own config in this simplified
        # stack; configure the server (sender) side.
        world = make_world(rtt=RTT, bandwidth=units.gbps(1),
                           server_config=TcpConfig(
                               receive_window_bytes=(
                                   config.receive_window_bytes)))
        world.server.listen(80, lambda: RespondApp(payload,
                                                   close_after=True))
        client = CollectorApp(request=b"G")
        world.client.connect(Endpoint("server", 80), client)
        world.sim.run()
        assert bytes(client.received) == payload
        durations[name] = client.data_times[-1] - client.data_times[0]
    # 120 kB at 4*1460 B per RTT needs ~20 RTTs; the big window needs
    # only the slow-start ramp (~5).
    assert durations["small"] > durations["big"] * 2


def test_custom_mss_segments_on_wire():
    config = TcpConfig(mss=500)
    world = make_world(rtt=RTT, server_config=config)
    payload = make_payload(5000)
    world.server.listen(80, lambda: RespondApp(payload, close_after=True))
    client = CollectorApp(request=b"G")

    sizes = []
    world.topology.node("client").add_tap(
        lambda event, packet: sizes.append(packet.payload.data)
        if event == "recv" and packet.payload.data else None)
    world.client.connect(Endpoint("server", 80), client)
    world.sim.run()
    assert bytes(client.received) == payload
    assert max(len(d) for d in sizes) <= 500


def test_nagle_coalesces_small_writes():
    """With Nagle on, many tiny writes produce fewer, larger segments."""
    segment_counts = {}
    for nagle in (False, True):
        world = make_world(rtt=RTT,
                           client_config=TcpConfig(nagle=nagle))
        world.server.listen(80, EchoServerApp)

        class Dripper(CollectorApp):
            def on_established(self, conn):
                super().on_established(conn)
                for i in range(20):
                    world.sim.schedule(0.001 * i, conn.send, b"x")

        client = Dripper()
        data_segments = []
        world.topology.node("server").add_tap(
            lambda event, packet: data_segments.append(packet)
            if event == "recv" and packet.payload.data else None)
        world.client.connect(Endpoint("server", 80), client)
        world.sim.run(until=30.0)
        segment_counts[nagle] = len(data_segments)
    assert segment_counts[True] < segment_counts[False]


def test_delayed_ack_coalesces_acks():
    """Delayed ACKs halve the pure-ACK count on a bulk transfer."""
    ack_counts = {}
    payload = make_payload(60_000)
    for delack in (False, True):
        world = make_world(rtt=RTT,
                           client_config=TcpConfig(delayed_ack=delack))
        world.server.listen(80, lambda: RespondApp(payload,
                                                   close_after=True))
        client = CollectorApp(request=b"G")
        acks = []
        world.topology.node("server").add_tap(
            lambda event, packet: acks.append(packet)
            if event == "recv" and packet.payload.is_pure_ack else None)
        world.client.connect(Endpoint("server", 80), client)
        world.sim.run(until=60.0)
        assert bytes(client.received) == payload
        ack_counts[delack] = len(acks)
    assert ack_counts[True] < ack_counts[False] * 0.75
    # One pure ACK per two full segments plus the timer-driven ones;
    # a lost timer handle re-arms extra timers and sends more.
    assert ack_counts[True] == 23


def test_abort_mid_transfer_notifies_app():
    world = make_world(rtt=RTT)
    payload = make_payload(200_000)
    world.server.listen(80, lambda: RespondApp(payload, close_after=True))
    client = CollectorApp(request=b"G")
    conn = world.client.connect(Endpoint("server", 80), client)
    # Abort shortly after the transfer starts.
    world.sim.schedule(RTT * 3, conn.abort, "operator abort")
    world.sim.run(until=10.0)
    assert client.errors == ["operator abort"]
    assert len(client.received) < len(payload)
    # The flow is released.
    assert conn.flow not in world.client.connections


def test_iw10_config_preset():
    from repro.tcp.config import IW10, CLASSIC_2011
    assert IW10.initial_window_segments == 10
    assert CLASSIC_2011.initial_window_segments == 3
    assert IW10.initial_cwnd_bytes == 10 * IW10.mss


def test_config_with_overrides_is_pure():
    base = TcpConfig()
    tweaked = base.with_overrides(mss=1000, congestion="cubic")
    assert tweaked.mss == 1000
    assert tweaked.congestion == "cubic"
    assert base.mss == 1460
    assert base.congestion == "reno"
