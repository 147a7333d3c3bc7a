"""Edge-case coverage: engine, HTTP responder misuse,
TCP host guards, topology asymmetry."""

import pytest

from repro.http.message import HttpError, HttpRequest, HttpResponse
from repro.http.server import HttpServer
from repro.net.address import Endpoint
from repro.net.topology import Topology
from repro.sim import units
from repro.sim.engine import Simulator
from repro.tcp.segment import Segment

from .helpers import CollectorApp, SinkApp


# ---------------------------------------------------------------------------
# engine edges
# ---------------------------------------------------------------------------


def test_event_handle_ordering():
    sim = Simulator()
    early = sim.schedule(1.0, lambda: None)
    late = sim.schedule(2.0, lambda: None)
    assert early < late


# ---------------------------------------------------------------------------
# HTTP responder misuse
# ---------------------------------------------------------------------------
class MisuseProbe:
    """Capture the responder from a handler for out-of-band misuse."""

    def __init__(self):
        self.responder = None

    def handler(self, request, responder):
        self.responder = responder
        responder.send_head(200)
        responder.send_body(b"part")
        # deliberately do not finish; tests poke at the responder


def test_responder_misuse_errors(two_hosts):
    world = two_hosts
    probe = MisuseProbe()
    HttpServer(world.server, 80, probe.handler)
    from repro.http.client import HttpFetch
    HttpFetch(world.client, Endpoint("server", 80),
              HttpRequest(path="/x"))
    world.run(until=5.0)
    responder = probe.responder
    assert responder is not None
    with pytest.raises(HttpError):
        responder.send_head(200)     # head already sent
    responder.finish()
    with pytest.raises(HttpError):
        responder.send_body(b"more")  # after finish
    responder.finish()                # idempotent


def test_responder_requires_head_first(two_hosts):
    world = two_hosts
    errors = []

    def handler(request, responder):
        try:
            responder.send_body(b"x")
        except HttpError as exc:
            errors.append("body")
        try:
            responder.finish()
        except HttpError:
            errors.append("finish")
        responder.respond(HttpResponse(body=b"ok"))

    HttpServer(world.server, 80, handler)
    from repro.http.client import HttpFetch
    fetch = HttpFetch(world.client, Endpoint("server", 80),
                      HttpRequest(path="/"))
    world.run()
    assert errors == ["body", "finish"]
    assert fetch.response.body == b"ok"


def test_server_aborts_on_malformed_request(two_hosts):
    world = two_hosts
    server = HttpServer(world.server, 80, lambda rq, rs: rs.respond(
        HttpResponse(body=b"never")))

    class RawGarbage(CollectorApp):
        def on_established(self, conn):
            conn.send(b"NONSENSE\r\n\r\n")

    app = RawGarbage()
    world.client.connect(Endpoint("server", 80), app)
    world.run(until=10.0)
    assert server.protocol_errors == 1
    assert server.requests_served == 0


# ---------------------------------------------------------------------------
# TCP host guards
# ---------------------------------------------------------------------------
def test_duplicate_listen_rejected(two_hosts):
    world = two_hosts
    world.server.listen(80, SinkApp)
    with pytest.raises(ValueError):
        world.server.listen(80, SinkApp)


def test_isn_is_deterministic_per_flow(two_hosts):
    world = two_hosts
    from repro.net.address import FlowKey
    flow = FlowKey(Endpoint("client", 50000), Endpoint("server", 80))
    assert world.client.next_isn(flow) == world.client.next_isn(flow)
    other = FlowKey(Endpoint("client", 50001), Endpoint("server", 80))
    assert world.client.next_isn(flow) != world.client.next_isn(other)


def test_explicit_local_port_conflict(two_hosts):
    world = two_hosts
    world.server.listen(80, SinkApp)
    world.client.connect(Endpoint("server", 80), CollectorApp(),
                         local_port=55555)
    with pytest.raises(ValueError):
        world.client.connect(Endpoint("server", 80), CollectorApp(),
                             local_port=55555)


# ---------------------------------------------------------------------------
# topology asymmetry
# ---------------------------------------------------------------------------
def test_connect_asymmetric_links():
    sim = Simulator()
    topo = Topology(sim)
    topo.add_node("a")
    topo.add_node("b")
    forward, backward = topo.connect("a", "b", delay=0.010,
                                     bandwidth=units.mbps(100))
    # Each direction is its own Link: slow the return path by hand.
    backward.delay = 0.050
    backward.bandwidth = units.mbps(1)
    assert forward.delay == 0.010
    assert backward.delay == 0.050
    assert backward.bandwidth < forward.bandwidth
    assert topo.path_delay("a", "b") == pytest.approx(0.010)
    assert topo.path_delay("b", "a") == pytest.approx(0.050)
    assert topo.rtt("a", "b") == pytest.approx(0.060)

    # Segments take each direction's own delay and serialization rate.
    arrivals = {}
    for name in ("a", "b"):
        topo.node(name).receiver = (
            lambda segment, name=name: arrivals.setdefault(name, sim.now))
    for src, dst in (("a", "b"), ("b", "a")):
        segment = Segment(sport=1, dport=2, seq=0)
        segment.src, segment.dst, segment.size_bytes = src, dst, 1250
        topo.node(src).links[dst].send(segment)
    sim.run()
    assert arrivals["b"] == pytest.approx(
        0.010 + 1250 / units.mbps(100))
    assert arrivals["a"] == pytest.approx(0.050 + 1250 / units.mbps(1))
