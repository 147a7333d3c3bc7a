"""Tests for network primitives: addresses, geo, links, nodes, topology."""

import pytest

from repro.net.address import Endpoint, EphemeralPortAllocator
from repro.net.geo import GeoPoint, haversine_miles, nearest
from repro.net.link import Link
from repro.net.node import Node
from repro.net.topology import Topology
from repro.sim import units
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.tcp.connection import TcpApp
from repro.tcp.host import TcpHost
from repro.tcp.segment import Segment


def wire_segment(size_bytes, src="a", dst="b"):
    """A segment stamped for the wire, as Connection._transmit does."""
    segment = Segment(sport=1, dport=2, seq=0)
    segment.src, segment.dst, segment.size_bytes = src, dst, size_bytes
    return segment


def far_node(sim, receiver):
    """The node at a link's far end, receiving with ``receiver``."""
    node = Node(sim, "b")
    node.receiver = receiver
    return node


# ---------------------------------------------------------------------------
# addresses
# ---------------------------------------------------------------------------
def test_endpoint_validation_and_str():
    endpoint = Endpoint("host-a", 80)
    assert str(endpoint) == "host-a:80"
    with pytest.raises(ValueError):
        Endpoint("", 80)
    with pytest.raises(ValueError):
        Endpoint("h", 0)
    with pytest.raises(ValueError):
        Endpoint("h", 70000)


def test_ephemeral_ports_unique_until_released():
    alloc = EphemeralPortAllocator()
    p1 = alloc.allocate()
    p2 = alloc.allocate()
    assert p1 != p2
    assert p1 >= EphemeralPortAllocator.FIRST
    alloc.release(p1)
    # After a full wrap, p1 becomes available again.
    seen = {alloc.allocate() for _ in range(100)}
    assert len(seen) == 100


# ---------------------------------------------------------------------------
# geo
# ---------------------------------------------------------------------------
def test_haversine_known_distance():
    # Minneapolis to Chicago is about 355 miles great-circle.
    msp = GeoPoint(44.98, -93.27)
    chi = GeoPoint(41.88, -87.63)
    distance = msp.distance_miles(chi)
    assert 330 < distance < 380


def test_haversine_zero_and_symmetry():
    a = GeoPoint(10.0, 20.0)
    b = GeoPoint(-33.0, 151.0)
    assert a.distance_miles(a) == 0.0
    assert a.distance_miles(b) == pytest.approx(b.distance_miles(a))


def test_geo_validation():
    with pytest.raises(ValueError):
        GeoPoint(91, 0)
    with pytest.raises(ValueError):
        GeoPoint(0, 200)


def test_nearest_picks_minimum():
    class Site:
        def __init__(self, lat, lon):
            self.location = GeoPoint(lat, lon)

    target = GeoPoint(0, 0)
    sites = [Site(50, 50), Site(1, 1), Site(-30, 10)]
    best, distance = nearest(target, sites)
    assert best is sites[1]
    assert distance == pytest.approx(haversine_miles(0, 0, 1, 1))
    with pytest.raises(ValueError):
        nearest(target, [])


# ---------------------------------------------------------------------------
# links
# ---------------------------------------------------------------------------
def test_link_delivery_includes_tx_and_prop_delay():
    sim = Simulator()
    arrivals = []
    link = Link(sim, "l", delay=0.010, bandwidth=1000.0,  # 1000 B/s
                dst=far_node(sim, lambda p: arrivals.append(sim.now)))
    link.send(wire_segment(500))
    sim.run()
    # 500 B at 1000 B/s = 0.5 s tx + 0.01 s prop.
    assert arrivals == [pytest.approx(0.51)]


def test_link_serializes_back_to_back_packets():
    sim = Simulator()
    arrivals = []
    link = Link(sim, "l", delay=0.0, bandwidth=1000.0,
                dst=far_node(sim, lambda p: arrivals.append(sim.now)))
    link.send(wire_segment(1000))
    link.send(wire_segment(1000))
    sim.run()
    assert arrivals == [pytest.approx(1.0), pytest.approx(2.0)]


def test_link_loss_rate_statistics():
    sim = Simulator()
    received = []
    link = Link(sim, "lossy", delay=0.0, bandwidth=1e9,
                dst=far_node(sim, received.append),
                loss_rate=0.3, streams=RandomStreams(1))
    sent = 2000
    accepted = sum(link.send(wire_segment(100)) for _ in range(sent))
    sim.run()
    assert accepted == sent
    loss = link.stats.packets_lost / sent
    assert 0.25 < loss < 0.35
    assert len(received) + link.stats.packets_lost == sent


def test_link_draws_follow_its_named_streams():
    """Loss and jitter draw from the streams "loss/<name>" and
    "jitter/<name>", float for float what a Bernoulli draw and
    ``uniform(0, jitter)`` on those streams give."""
    sim = Simulator()
    arrivals = []
    link = Link(sim, "l", delay=0.001, bandwidth=1e6,
                dst=far_node(sim, lambda p: arrivals.append((p, sim.now))),
                loss_rate=0.2, jitter=0.01, streams=RandomStreams(5))
    segments = [wire_segment(100) for _ in range(300)]
    for segment in segments:
        link.send(segment)
    sim.run()

    reference = RandomStreams(5)
    loss, jitter = reference.get("loss/l"), reference.get("jitter/l")
    expected = []
    busy = last = 0.0
    for segment in segments:
        busy = busy + 100 / 1e6
        if loss.random() < 0.2:
            continue
        arrival = busy + 0.001 + jitter.uniform(0.0, 0.01)
        last = arrival if arrival > last else last
        expected.append((segment, last))
    assert 40 < len(segments) - len(expected) < 80
    assert arrivals == expected


def test_clean_link_draws_nothing():
    """A link with no loss and no jitter never touches its streams, so
    it cannot perturb a sibling that shares their names; a near-certain
    loss rate drops every packet."""
    sim = Simulator()
    streams = RandomStreams(11)
    received = []
    clean = Link(sim, "l", delay=0.0, bandwidth=1e9,
                 dst=far_node(sim, received.append), streams=streams)
    for _ in range(20):
        clean.send(wire_segment(100))
    sim.run()
    assert len(received) == 20
    fresh = RandomStreams(11)
    for name in ("loss/l", "jitter/l"):
        assert streams.get(name).random() == fresh.get(name).random()

    lossy = Link(sim, "q", delay=0.0, bandwidth=1e9,
                 dst=far_node(sim, received.append),
                 loss_rate=1.0 - 1e-12, streams=streams)
    for _ in range(20):
        lossy.send(wire_segment(100))
    sim.run()
    assert len(received) == 20
    assert lossy.stats.packets_lost == 20


def test_link_tail_drop_on_queue_overflow():
    sim = Simulator()
    delivered = []
    link = Link(sim, "tiny", delay=0.0, bandwidth=100.0,
                dst=far_node(sim, delivered.append),
                queue_limit_bytes=250)
    accepted = [link.send(wire_segment(100)) for _ in range(5)]
    sim.run()
    assert accepted[0] and accepted[1]
    assert not all(accepted)
    assert link.stats.packets_dropped_queue >= 1
    assert len(delivered) == sum(accepted)


def test_link_jitter_preserves_fifo():
    sim = Simulator()
    order = []
    link = Link(sim, "jit", delay=0.01, bandwidth=1e9,
                dst=far_node(sim, order.append),
                jitter=0.05, streams=RandomStreams(3))
    segments = [wire_segment(100) for _ in range(50)]
    for segment in segments:
        link.send(segment)
    sim.run()
    assert order == segments


def test_link_parameter_validation():
    sim = Simulator()
    dst = far_node(sim, lambda p: None)
    with pytest.raises(ValueError):
        Link(sim, "x", delay=-1, bandwidth=1, dst=dst)
    with pytest.raises(ValueError):
        Link(sim, "x", delay=0, bandwidth=0, dst=dst)
    for rate in (1.0, 1.5, -0.1):
        with pytest.raises(ValueError):
            Link(sim, "x", delay=0, bandwidth=1, dst=dst, loss_rate=rate)


# ---------------------------------------------------------------------------
# topology and nodes
# ---------------------------------------------------------------------------
def test_topology_path_delay_and_rtt():
    sim = Simulator()
    topo = Topology(sim)
    for name in ("a", "b", "c"):
        topo.add_node(name)
    forward, backward = topo.connect("a", "b", delay=0.015,
                                     bandwidth=units.mbps(10))
    assert forward.delay == backward.delay == 0.015
    assert forward.bandwidth == backward.bandwidth == units.mbps(10)
    assert topo.path_delay("a", "b") == pytest.approx(0.015)
    assert topo.path_delay("b", "a") == pytest.approx(0.015)
    assert topo.rtt("a", "b") == pytest.approx(0.030)
    # Every path is one direct link: no link, no path.
    with pytest.raises(ValueError, match="no link from 'a' to 'c'"):
        topo.path_delay("a", "c")


def test_topology_geo_derived_delay():
    sim = Simulator()
    topo = Topology(sim)
    topo.add_node("msp", GeoPoint(44.98, -93.27))
    topo.add_node("chi", GeoPoint(41.88, -87.63))
    forward, backward = topo.connect("msp", "chi",
                                     bandwidth=units.mbps(100))
    # ~355 miles * 1.6 inflation / fiber speed ~= 4.6 ms one-way.
    assert 0.003 < forward.delay < 0.007
    assert forward.delay == backward.delay


def test_topology_requires_some_delay_source():
    sim = Simulator()
    topo = Topology(sim)
    topo.add_node("x")
    topo.add_node("y")
    with pytest.raises(ValueError):
        topo.connect("x", "y")


def test_topology_duplicate_node_rejected():
    topo = Topology(Simulator())
    topo.add_node("n")
    with pytest.raises(ValueError):
        topo.add_node("n")


def test_node_raises_without_link_or_with_second_host():
    sim = Simulator()
    topo = Topology(sim)
    for name in ("a", "b", "c"):
        topo.add_node(name)
    topo.connect("a", "b", delay=0.001, bandwidth=units.mbps(1))
    host = TcpHost(sim, topo.node("a"))
    TcpHost(sim, topo.node("b"))
    # a has no link to c, and nothing forwards: every path is one link,
    # which a connection resolves when it opens.
    with pytest.raises(ValueError, match="a has no link to c"):
        host.connect(Endpoint("c", 80), TcpApp())
    assert host.connections == {}
    with pytest.raises(ValueError, match="node b already has a TCP host"):
        TcpHost(sim, topo.node("b"))


def test_host_capture_observes_events():
    """A host's capture hook sees each segment as the host sends it, and
    the far host's as it arrives there: one call per host per hop."""
    sim = Simulator()
    topo = Topology(sim)
    topo.add_node("a")
    topo.add_node("b")
    topo.connect("a", "b", delay=0.001, bandwidth=units.mbps(1))
    events = []
    hosts = {}
    for name in ("a", "b"):
        hosts[name] = TcpHost(sim, topo.node(name))
        hosts[name].capture = (lambda direction, segment, name=name:
                               events.append((name, direction, segment,
                                              sim.now)))
    hosts["b"].listen(80, TcpApp)
    hosts["a"].connect(Endpoint("b", 80), TcpApp())
    # The SYN is seen as it leaves, inside connect.
    assert [(n, d, s.syn) for n, d, s, _ in events] == [("a", "out", True)]
    sim.run()
    # SYN, SYN-ACK, ACK: each out at its sender, then in at its receiver.
    assert [(n, d) for n, d, _, _ in events] == [
        ("a", "out"), ("b", "in"), ("b", "out"), ("a", "in"),
        ("a", "out"), ("b", "in")]
    for sent, received in zip(events[0::2], events[1::2]):
        assert sent[2] is received[2]
        assert received[3] > sent[3]
    assert [(s.syn, s.ack_flag) for _, _, s, _ in events[0::2]] == [
        (True, False), (True, True), (False, True)]
