"""Coverage for small helpers: words, capture, sessions, timeline spans."""

import pytest

from repro.content import words
from repro.content.keywords import KeywordCatalog
from repro.measure.capture import PacketCapture, PacketEvent
from repro.measure.session import QuerySession
from repro.content.keywords import Keyword
from repro.net.address import Endpoint
from repro.net.topology import Topology
from repro.sim import units
from repro.sim.engine import Simulator
from repro.tcp.connection import TcpApp
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


def two_host_world():
    sim = Simulator()
    topo = Topology(sim)
    topo.add_node("a")
    topo.add_node("b")
    topo.connect("a", "b", delay=0.001, bandwidth=units.mbps(10))
    host_a = TcpHost(sim, topo.node("a"))
    host_b = TcpHost(sim, topo.node("b"))
    host_b.listen(80, TcpApp)
    return sim, host_a


def test_capture_records_only_open_ports():
    sim, host_a = two_host_world()
    capture = PacketCapture(sim, host_a)
    # The host hands every segment to its capture hook.
    observe = host_a.capture
    observe("out", make_tcp_segment(sport=1111))  # nothing open yet
    capture.open_port(1111)
    observe("out", make_tcp_segment(sport=1111))
    observe("out", make_tcp_segment(sport=2222))  # never opened
    observe("in", make_tcp_segment(sport=80, dport=2222))
    events = capture.close_port(1111)
    assert len(events) == 1
    assert events[0].direction == "out" and events[0].sport == 1111
    observe("out", make_tcp_segment(sport=1111))  # closed again
    with pytest.raises(KeyError):
        capture.close_port(1111)
    capture.open_port(1111)  # a reopened port starts empty
    assert capture.close_port(1111) == []
    with pytest.raises(ValueError, match="host a already has a capture"):
        PacketCapture(sim, host_a)


def test_capture_routes_packets_by_local_port():
    sim, host_a = two_host_world()
    capture = PacketCapture(sim, host_a)
    capture.open_port(1111)
    capture.open_port(2222)
    for at, port in ((1.0, 1111), (2.0, 2222), (3.0, 3333)):
        sim.schedule(at, host_a.connect, Endpoint("b", 80), TcpApp(), port)
    sim.run()
    # The handshake as the client's host sent and received it.
    for port, at in ((1111, 1.0), (2222, 2.0)):
        events = capture.close_port(port)
        assert [(e.direction, e.sport, e.dport, e.syn, e.ack_flag)
                for e in events] == [("out", port, 80, True, False),
                                     ("in", 80, port, True, True),
                                     ("out", port, 80, False, True)]
        assert events[0].time == pytest.approx(at)
        assert at < events[1].time == pytest.approx(events[2].time)
    with pytest.raises(KeyError):
        capture.close_port(3333)


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
