"""Deterministic loss-recovery tests using link fault injection.

Each test drops specific packets (by offer index or content) and checks
that TCP recovers through the intended mechanism — fast retransmit,
RTO, SYN retry — with the right counters and rough timing.
"""

import pytest

from repro.net.address import Endpoint
from repro.sim import units

from .conftest import make_world
from .helpers import CollectorApp, RespondApp, SinkApp, make_payload

RTT = units.ms(40)


def server_to_client_link(world):
    return world.topology.node("server").links["client"]


def client_to_server_link(world):
    return world.topology.node("client").links["server"]


def drop_offer_indices(indices):
    targets = set(indices)
    return lambda segment, index: index in targets


def test_fast_retransmit_recovers_mid_stream_loss():
    world = make_world(rtt=RTT)
    payload = make_payload(60_000)
    world.server.listen(80, lambda: RespondApp(payload, close_after=True))
    client = CollectorApp(request=b"G")
    conn = world.client.connect(Endpoint("server", 80), client)

    # Drop one data segment mid-transfer (enough later packets exist to
    # generate 3 dupacks -> fast retransmit, no RTO).
    link = server_to_client_link(world)
    link.fault_filter = drop_offer_indices({10})
    world.sim.run()

    assert bytes(client.received) == payload
    server_conn = next(iter(world.server.connections.values()), None)
    # The server side did the retransmitting; find its stats via totals.
    assert link.stats.packets_lost == 1
    # Recovery must not have needed a timeout.
    total_timeouts = sum(c.stats.timeouts
                         for c in world.server.connections.values())
    assert total_timeouts == 0


def test_tail_loss_requires_rto():
    """Dropping the final segment leaves too few dupacks: RTO fires."""
    world = make_world(rtt=RTT)
    payload = make_payload(20_000)
    server_holder = {}

    def factory():
        app = RespondApp(payload, close_after=False)
        server_holder["app"] = app
        return app

    world.server.listen(80, factory)
    client = CollectorApp(request=b"G")
    world.client.connect(Endpoint("server", 80), client)

    link = server_to_client_link(world)
    # 20000 B at MSS 1460 -> 14 data segments.  Drop the last one (its
    # first transmission): no later packets exist, so no dupacks, and
    # recovery must come from the retransmission timer.
    data_offers = []

    def drop_last_data_segment(segment, index):
        if segment.data and not segment.retransmit:
            data_offers.append(index)
            if len(data_offers) == 14:  # the 14th response segment
                return True
        return False

    link.fault_filter = drop_last_data_segment
    world.sim.run(until=30.0)

    assert bytes(client.received) == payload
    total_timeouts = sum(c.stats.timeouts
                         for c in world.server.connections.values())
    assert total_timeouts >= 1


def test_lost_syn_retried_after_initial_rto():
    world = make_world(rtt=RTT)
    world.server.listen(80, SinkApp)
    client = CollectorApp(request=b"hello")
    link = client_to_server_link(world)
    link.fault_filter = drop_offer_indices({0})  # the first SYN
    world.client.connect(Endpoint("server", 80), client)
    world.sim.run(until=30.0)
    # Established roughly one initial RTO (1 s) late.
    assert client.established_at == pytest.approx(1.0 + RTT, abs=0.2)


def test_lost_syn_ack_retried():
    world = make_world(rtt=RTT)
    world.server.listen(80, SinkApp)
    client = CollectorApp(request=b"hi")
    link = server_to_client_link(world)
    link.fault_filter = drop_offer_indices({0})  # the SYN-ACK
    world.client.connect(Endpoint("server", 80), client)
    world.sim.run(until=30.0)
    assert client.established_at is not None
    assert client.established_at > 0.9  # waited for a retry


def test_lost_request_is_retransmitted():
    world = make_world(rtt=RTT)
    echo_received = []

    class Recorder(SinkApp):
        def on_data(self, conn, data):
            super().on_data(conn, data)
            echo_received.append(data)

    world.server.listen(80, Recorder)
    client = CollectorApp(request=b"the query")
    link = client_to_server_link(world)
    # Offer 0 = SYN (keep), offer 1 = GET data (drop), offer 2 = the
    # pure handshake ACK (keep).
    link.fault_filter = drop_offer_indices({1})
    conn = world.client.connect(Endpoint("server", 80), client)
    world.sim.run(until=30.0)
    assert b"".join(echo_received) == b"the query"
    assert conn.stats.retransmissions + conn.stats.timeouts >= 1


def test_lost_ack_is_harmless():
    """Pure-ACK losses must not stall a transfer (cumulative ACKs)."""
    world = make_world(rtt=RTT)
    payload = make_payload(40_000)
    world.server.listen(80, lambda: RespondApp(payload, close_after=True))
    client = CollectorApp(request=b"G")
    link = client_to_server_link(world)
    dropped = []

    def drop_every_third_pure_ack(segment, index):
        if (segment.ack_flag and not segment.data and not segment.syn
                and not segment.fin):
            if len(dropped) % 3 == 0:
                dropped.append(index)
                return True
            dropped.append(-1)
        return False

    link.fault_filter = drop_every_third_pure_ack
    world.client.connect(Endpoint("server", 80), client)
    world.sim.run(until=60.0)
    assert bytes(client.received) == payload


def test_burst_loss_still_recovers():
    world = make_world(rtt=RTT)
    payload = make_payload(80_000)
    world.server.listen(80, lambda: RespondApp(payload, close_after=True))
    client = CollectorApp(request=b"G")
    link = server_to_client_link(world)
    link.fault_filter = drop_offer_indices({8, 9, 10, 11})
    world.client.connect(Endpoint("server", 80), client)
    world.sim.run(until=120.0)
    assert bytes(client.received) == payload


def test_fault_filter_counts_as_loss_in_stats():
    world = make_world(rtt=RTT)
    world.server.listen(80, SinkApp)
    client = CollectorApp(request=make_payload(5000),
                          close_after_send=True)
    link = client_to_server_link(world)
    link.fault_filter = drop_offer_indices({2})
    world.client.connect(Endpoint("server", 80), client)
    world.sim.run(until=30.0)
    assert link.stats.packets_lost == 1
