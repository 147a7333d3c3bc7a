"""TCP flow-control and configuration behaviour tests."""

from repro.net.address import Endpoint
from repro.sim import units
from repro.tcp.config import TcpConfig

from .conftest import make_world
from .helpers import CollectorApp, RespondApp, make_payload

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
    world.client.capture = (
        lambda direction, segment: sizes.append(segment.data)
        if direction == "in" and segment.data else None)
    world.client.connect(Endpoint("server", 80), client)
    world.sim.run()
    assert bytes(client.received) == payload
    assert max(len(d) for d in sizes) <= 500


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
    assert conn not in world.client.connections.values()
