"""Tests for network primitives: addresses, geo, links, nodes, topology."""

import pytest

from repro.net.address import Endpoint, EphemeralPortAllocator
from repro.net.geo import GeoPoint, haversine_miles, nearest
from repro.net.link import Link
from repro.net.topology import Topology
from repro.sim import units
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.tcp.host import TcpHost
from repro.tcp.segment import Segment


def wire_segment(size_bytes, src="a", dst="b"):
    """A segment stamped for the wire, as Connection._transmit does."""
    segment = Segment(sport=1, dport=2, seq=0)
    segment.src, segment.dst, segment.size_bytes = src, dst, size_bytes
    return segment


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
                deliver=lambda p: arrivals.append(sim.now))
    link.send(wire_segment(500))
    sim.run()
    # 500 B at 1000 B/s = 0.5 s tx + 0.01 s prop.
    assert arrivals == [pytest.approx(0.51)]


def test_link_serializes_back_to_back_packets():
    sim = Simulator()
    arrivals = []
    link = Link(sim, "l", delay=0.0, bandwidth=1000.0,
                deliver=lambda p: arrivals.append(sim.now))
    link.send(wire_segment(1000))
    link.send(wire_segment(1000))
    sim.run()
    assert arrivals == [pytest.approx(1.0), pytest.approx(2.0)]


def test_link_loss_rate_statistics():
    sim = Simulator()
    received = []
    link = Link(sim, "lossy", delay=0.0, bandwidth=1e9,
                deliver=lambda p: received.append(p),
                loss_rate=0.3, streams=RandomStreams(1))
    for _ in range(2000):
        link.send(wire_segment(100))
    sim.run()
    loss = link.stats.packets_lost / link.stats.packets_offered
    assert 0.25 < loss < 0.35
    assert len(received) == link.stats.packets_delivered
    assert link.stats.packets_offered == 2000


def test_link_tail_drop_on_queue_overflow():
    sim = Simulator()
    delivered = []
    link = Link(sim, "tiny", delay=0.0, bandwidth=100.0,
                deliver=lambda p: delivered.append(p),
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
                deliver=order.append,
                jitter=0.05, streams=RandomStreams(3))
    segments = [wire_segment(100) for _ in range(50)]
    for segment in segments:
        link.send(segment)
    sim.run()
    assert order == segments


def test_link_parameter_validation():
    sim = Simulator()
    deliver = lambda p: None
    with pytest.raises(ValueError):
        Link(sim, "x", delay=-1, bandwidth=1, deliver=deliver)
    with pytest.raises(ValueError):
        Link(sim, "x", delay=0, bandwidth=0, deliver=deliver)
    with pytest.raises(ValueError):
        Link(sim, "x", delay=0, bandwidth=1, deliver=deliver, loss_rate=1.0)


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
    TcpHost(sim, topo.node("b"))
    # a has no link to c, and nothing forwards: every path is one link.
    with pytest.raises(ValueError, match="a has no link to c"):
        topo.node("a").send(wire_segment(10, dst="c"))
    with pytest.raises(ValueError, match="node b already has a TCP host"):
        TcpHost(sim, topo.node("b"))


def test_node_taps_observe_events():
    sim = Simulator()
    topo = Topology(sim)
    topo.add_node("a")
    topo.add_node("b")
    topo.connect("a", "b", delay=0.001, bandwidth=units.mbps(1))
    received = []
    topo.node("b").receiver = received.append
    events = []
    topo.node("a").add_tap(lambda d, s: events.append(("a", d, s)))
    topo.node("b").add_tap(lambda d, s: events.append(("b", d, s)))
    segment = wire_segment(10)
    assert topo.node("a").send(segment)
    assert events == [("a", "out", segment)]
    sim.run()
    assert events == [("a", "out", segment), ("b", "in", segment)]
    assert received == [segment]
