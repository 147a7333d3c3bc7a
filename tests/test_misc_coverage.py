"""Coverage for small helpers: words, capture, sessions, timeline spans."""

import pytest

from repro.content import words
from repro.content.keywords import KeywordCatalog
from repro.measure.capture import PacketCapture, PacketEvent
from repro.measure.session import QuerySession
from repro.content.keywords import Keyword
from repro.net.topology import Topology
from repro.sim import units
from repro.sim.engine import Simulator
from repro.tcp.host import TcpHost
from repro.tcp.segment import HEADER_BYTES, Segment


# ---------------------------------------------------------------------------
# word pools
# ---------------------------------------------------------------------------
def test_word_pools_nonempty_and_disjoint_enough():
    assert len(words.POPULAR_TOPICS) >= 15
    assert len(words.TOPIC_NOUNS) >= 20
    assert len(words.UNCORRELATED_NOUNS) >= 15
    # Uncorrelated nouns must not overlap the topic nouns (they model
    # the paper's "computer and potato" mixtures).
    assert not set(words.UNCORRELATED_NOUNS) & set(words.TOPIC_NOUNS)
    assert "Videos" in words.STATIC_MENU_ITEMS
    assert "News" in words.STATIC_MENU_ITEMS


def test_catalog_classes_do_not_leak_rng_state():
    """Requesting one class must not perturb another (named streams)."""
    a = KeywordCatalog(seed=9)
    b = KeywordCatalog(seed=9)
    a.popular(50)  # extra draws on catalog a
    assert [k.text for k in a.complex(5)] == \
        [k.text for k in b.complex(5)]


# ---------------------------------------------------------------------------
# capture mechanics
# ---------------------------------------------------------------------------
def make_tcp_segment(sport=1234, dport=80, data=b"abc", src="a", dst="b"):
    segment = Segment(sport=sport, dport=dport, seq=1, data=data,
                      ack_flag=True)
    segment.src, segment.dst = src, dst
    segment.size_bytes = HEADER_BYTES + len(data)
    return segment


def two_node_world():
    sim = Simulator()
    topo = Topology(sim)
    node_a = topo.add_node("a")
    node_b = topo.add_node("b")
    topo.connect("a", "b", delay=0.001, bandwidth=units.mbps(10))
    # Hosts with no flows: they drop what arrives, after the taps.
    TcpHost(sim, node_a)
    TcpHost(sim, node_b)
    return sim, node_a, node_b


def test_capture_records_only_open_ports():
    sim, node_a, _ = two_node_world()
    capture = PacketCapture(sim, node_a)
    node_a.send(make_tcp_segment(sport=1111))  # nothing open yet
    capture.open_port(1111)
    node_a.send(make_tcp_segment(sport=1111))
    node_a.send(make_tcp_segment(sport=2222))  # never opened
    sim.run()
    events = capture.close_port(1111)
    assert len(events) == 1
    assert events[0].direction == "out" and events[0].sport == 1111
    node_a.send(make_tcp_segment(sport=1111))  # closed again
    sim.run()
    with pytest.raises(KeyError):
        capture.close_port(1111)
    capture.open_port(1111)  # a reopened port starts empty
    assert capture.close_port(1111) == []


def test_capture_routes_packets_by_local_port():
    sim, node_a, node_b = two_node_world()
    capture = PacketCapture(sim, node_a)
    capture.open_port(1111)
    capture.open_port(2222)
    sim.schedule(1.0, node_a.send, make_tcp_segment(sport=1111))
    sim.schedule(2.0, node_a.send, make_tcp_segment(sport=2222))
    inbound = make_tcp_segment(sport=80, dport=1111, src="b", dst="a")
    sim.schedule(3.0, node_b.send, inbound)
    sim.run()
    first = capture.close_port(1111)
    assert [(e.direction, e.sport, e.dport) for e in first] == \
        [("out", 1111, 80), ("in", 80, 1111)]
    assert first[0].time == pytest.approx(1.0)
    assert first[1].time > 3.0
    second = capture.close_port(2222)
    assert [(e.direction, e.sport) for e in second] == [("out", 2222)]
    assert second[0].time == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# session helpers
# ---------------------------------------------------------------------------
def test_session_duration_and_filters():
    session = QuerySession(
        query_id="q", service="svc", vp_name="vp", fe_name="fe",
        keyword=Keyword(text="k", popularity=0.5, complexity=0.5),
        started_at=1.0)
    assert not session.complete
    assert session.duration is None
    session.completed_at = 3.5
    assert session.complete
    assert session.duration == 2.5
    session.failed = "boom"
    assert not session.complete

    inbound = PacketEvent(time=2.0, direction="in", src="fe", dst="vp",
                          sport=80, dport=5000, wire_size=140,
                          payload_len=100, seq=1, ack=1, syn=False,
                          fin=False, ack_flag=True, retransmit=False)
    outbound = PacketEvent(time=1.0, direction="out", src="vp", dst="fe",
                           sport=5000, dport=80, wire_size=40,
                           payload_len=0, seq=1, ack=0, syn=True,
                           fin=False, ack_flag=False, retransmit=False)
    session.events = [outbound, inbound]
    assert session.inbound_data_events() == [inbound]


def test_failed_session_duration_is_in_seconds():
    session = QuerySession(
        query_id="q", service="svc", vp_name="vp", fe_name="fe",
        keyword=Keyword(text="k", popularity=0.5, complexity=0.5),
        started_at=1.0, completed_at=3.5, failed="connection reset")
    assert session.duration == 2.5


# ---------------------------------------------------------------------------
# sites helpers
# ---------------------------------------------------------------------------
def test_metro_hubs_are_subset():
    from repro.testbed.sites import METROS, google_like_fe_sites
    hub_names = {m.name for m in METROS if m.hub}
    site_names = {name for name, _ in google_like_fe_sites()}
    assert site_names == hub_names
