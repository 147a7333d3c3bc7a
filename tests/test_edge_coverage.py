"""Edge-case coverage: engine, HTTP responder misuse,
TCP host guards, topology asymmetry."""

import pytest

from repro.http.message import HttpError, HttpRequest, HttpResponse
from repro.http.server import HttpServer, Responder
from repro.net.address import Endpoint
from repro.net.topology import LinkSpec, Topology
from repro.sim import units
from repro.sim.engine import Simulator

from .conftest import TwoHostWorld, make_world
from .helpers import CollectorApp, RespondApp, SinkApp


# ---------------------------------------------------------------------------
# engine edges
# ---------------------------------------------------------------------------
def test_run_until_idle_respects_hard_limit():
    sim = Simulator()
    fired = []

    def chain():
        fired.append(sim.now)
        if sim.now < 100:
            sim.schedule(1.0, chain)

    sim.schedule(0.0, chain)
    sim.run_until_idle(idle_gap=5.0, hard_limit=10.0)
    assert sim.now <= 11.0
    assert len(fired) <= 12


def test_run_until_idle_validates_gap():
    with pytest.raises(ValueError):
        Simulator().run_until_idle(idle_gap=0, hard_limit=10)


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
    forward, backward = topo.connect_asymmetric(
        "a", "b",
        LinkSpec(delay=0.010, bandwidth=units.mbps(100)),
        LinkSpec(delay=0.050, bandwidth=units.mbps(1)))
    assert forward.delay == 0.010
    assert backward.delay == 0.050
    assert backward.bandwidth < forward.bandwidth
    topo.build_routes()
    assert topo.path_delay("a", "b") == pytest.approx(0.010)
    assert topo.path_delay("b", "a") == pytest.approx(0.050)
    assert topo.rtt("a", "b") == pytest.approx(0.060)
