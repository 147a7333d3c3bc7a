"""Integration tests: full TCP transfers over the simulated network."""

import pytest

from repro.net.address import Endpoint
from repro.sim import units
from repro.tcp.config import TcpConfig
from repro.tcp.connection import ConnectionError_, State

from .conftest import make_world
from .helpers import (CollectorApp, EchoServerApp, RespondApp, SinkApp,
                      make_payload)

RTT = units.ms(40)


def test_handshake_takes_one_rtt(two_hosts):
    world = two_hosts
    world.server.listen(80, SinkApp)
    app = CollectorApp()
    world.client.connect(Endpoint("server", 80), app)
    world.run()
    assert app.established_at == pytest.approx(RTT, rel=0.05)


def test_small_request_response_roundtrip(two_hosts):
    world = two_hosts
    server_app = RespondApp(b"pong", trigger_bytes=4)
    world.server.listen(80, lambda: server_app)
    client = CollectorApp(request=b"ping")
    world.client.connect(Endpoint("server", 80), client)
    world.run()
    assert bytes(server_app.received) == b"ping"
    assert bytes(client.received) == b"pong"
    # Request leaves at 1 RTT (with the handshake ACK); response arrives
    # one more RTT later.
    assert client.data_times[0] == pytest.approx(2 * RTT, rel=0.1)


def test_bulk_transfer_integrity_client_to_server(two_hosts):
    world = two_hosts
    sink = SinkApp()
    world.server.listen(80, lambda: sink)
    payload = make_payload(300_000)
    client = CollectorApp(request=payload, close_after_send=True)
    world.client.connect(Endpoint("server", 80), client)
    world.run()
    assert sink.byte_count == len(payload)
    assert sink.closed


def test_bulk_transfer_integrity_server_to_client(two_hosts):
    world = two_hosts
    payload = make_payload(200_000, tag=b"S")
    world.server.listen(80, lambda: RespondApp(payload, close_after=True))
    client = CollectorApp(request=b"GET")
    world.client.connect(Endpoint("server", 80), client)
    world.run()
    assert bytes(client.received) == payload
    assert client.closed_at is not None


def test_slow_start_needs_multiple_rtts():
    """A cold 60 kB response takes several window-ramp RTTs."""
    world = make_world(rtt=units.ms(100), bandwidth=units.gbps(1))
    payload = make_payload(60_000)
    world.server.listen(80, lambda: RespondApp(payload, close_after=True))
    client = CollectorApp(request=b"G")
    world.client.connect(Endpoint("server", 80), client)
    world.run()
    first = client.data_times[0]
    last = client.data_times[-1]
    # IW3 at MSS 1460: windows 3,6,12,24 segments -> ~3 extra RTTs after
    # the first data packet.
    assert last - first > 2.5 * units.ms(100)
    assert bytes(client.received) == payload


def test_large_initial_window_cuts_transfer_time():
    slow = make_world(rtt=units.ms(100), bandwidth=units.gbps(1))
    fast = make_world(rtt=units.ms(100), bandwidth=units.gbps(1),
                      server_config=TcpConfig(initial_window_segments=40))
    payload = make_payload(50_000)
    times = {}
    for name, world in (("slow", slow), ("fast", fast)):
        world.server.listen(80, lambda: RespondApp(payload, close_after=True))
        client = CollectorApp(request=b"G")
        world.client.connect(Endpoint("server", 80), client)
        world.run()
        assert bytes(client.received) == payload
        times[name] = client.data_times[-1]
    assert times["fast"] < times["slow"] - units.ms(100)


def test_transfer_under_loss_is_reliable():
    world = make_world(loss_rate=0.02, seed=11)
    payload = make_payload(150_000, tag=b"L")
    world.server.listen(80, lambda: RespondApp(payload, close_after=True))
    client = CollectorApp(request=b"G")
    conn = world.client.connect(Endpoint("server", 80), client)
    world.run(until=300.0)
    assert bytes(client.received) == payload


def test_retransmission_counters_increment_under_loss():
    world = make_world(loss_rate=0.05, seed=5)
    sink = SinkApp()
    world.server.listen(80, lambda: sink)
    payload = make_payload(200_000)
    client = CollectorApp(request=payload, close_after_send=True)
    conn = world.client.connect(Endpoint("server", 80), client)
    world.run(until=300.0)
    assert sink.byte_count == len(payload)
    assert conn.stats.retransmissions > 0


def test_echo_round_trip(two_hosts):
    world = two_hosts
    world.server.listen(7, EchoServerApp)
    message = make_payload(5000, tag=b"E")
    client = CollectorApp(request=message, close_after_send=True)
    world.client.connect(Endpoint("server", 7), client)
    world.run()
    assert bytes(client.received) == message


def test_persistent_connection_window_grows(two_hosts):
    """cwnd must survive across request/response exchanges (no idle reset)."""
    world = two_hosts
    server_apps = []

    def factory():
        app = EchoServerApp()
        server_apps.append(app)
        return app

    world.server.listen(80, factory)
    client = CollectorApp()
    conn = world.client.connect(Endpoint("server", 80), client)
    world.sim.run()
    cwnd_start = conn.cc.cwnd
    # Three sequential exchanges on the same connection.
    for i in range(3):
        conn.send(make_payload(20_000, tag=b"%d" % i))
        world.sim.run()
    assert conn.cc.cwnd > cwnd_start
    assert len(bytes(client.received)) == 60_000


def test_clean_close_reaches_closed_state(two_hosts):
    world = two_hosts
    world.server.listen(80, EchoServerApp)
    client = CollectorApp(request=b"hi", close_after_send=True)
    conn = world.client.connect(Endpoint("server", 80), client)
    world.run()
    assert client.closed_at is not None
    assert conn.state in (State.TIME_WAIT, State.CLOSED)
    # After TIME_WAIT expiry the flow is forgotten.
    world.run(until=200.0)
    assert conn not in world.client.connections.values()


def test_send_after_close_raises(two_hosts):
    world = two_hosts
    world.server.listen(80, EchoServerApp)
    client = CollectorApp(request=b"x")
    conn = world.client.connect(Endpoint("server", 80), client)
    world.run()
    conn.close()
    world.run()
    with pytest.raises(ConnectionError_):
        conn.send(b"more")


def test_connect_to_dead_port_aborts_after_retries(two_hosts):
    world = two_hosts
    client = CollectorApp(request=b"x")
    conn = world.client.connect(Endpoint("server", 4444), client)
    world.run(until=400.0)
    assert client.established_at is None
    assert client.errors
    assert conn.state == State.CLOSED


def test_rtt_estimate_close_to_actual_rtt(two_hosts):
    world = two_hosts
    world.server.listen(80, EchoServerApp)
    client = CollectorApp(request=make_payload(30_000), close_after_send=True)
    conn = world.client.connect(Endpoint("server", 80), client)
    world.run()
    assert conn._srtt == pytest.approx(RTT, rel=0.25)


def test_fixed_window_controller_transfers_in_fewer_rtts():
    world = make_world(rtt=units.ms(100), bandwidth=units.gbps(1))
    payload = make_payload(80_000)
    # Server side uses a pinned large window via listener config override.
    received = []

    class BigWindowResponder(RespondApp):
        def __init__(self):
            super().__init__(payload, close_after=True)

    world.server.listen(80, BigWindowResponder)
    # Patch: passive connections take listener config; emulate by giving
    # the whole server stack a fixed-window-equivalent config.
    world2 = make_world(rtt=units.ms(100), bandwidth=units.gbps(1),
                        server_config=TcpConfig(initial_window_segments=60))
    world2.server.listen(80, BigWindowResponder)
    durations = []
    for w in (world, world2):
        client = CollectorApp(request=b"G")
        w.client.connect(Endpoint("server", 80), client)
        w.run()
        assert bytes(client.received) == payload
        durations.append(client.data_times[-1] - client.data_times[0])
    assert durations[1] < durations[0]


def test_two_parallel_connections_are_isolated(two_hosts):
    world = two_hosts
    world.server.listen(80, EchoServerApp)
    a = CollectorApp(request=make_payload(10_000, tag=b"A"),
                     close_after_send=True)
    b = CollectorApp(request=make_payload(10_000, tag=b"B"),
                     close_after_send=True)
    world.client.connect(Endpoint("server", 80), a)
    world.client.connect(Endpoint("server", 80), b)
    world.run()
    assert bytes(a.received) == make_payload(10_000, tag=b"A")
    assert bytes(b.received) == make_payload(10_000, tag=b"B")
