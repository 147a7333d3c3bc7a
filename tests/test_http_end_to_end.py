"""Integration tests: HTTP over the simulated network."""

import pytest

from repro.analysis.boundary import chunk_spans
from repro.analysis.stream import (
    arrival_time_of_offset,
    inbound_byte_arrivals,
    reconstruct_inbound_stream,
)
from repro.http.client import HttpFetch, PersistentHttpClient, RequestHooks
from repro.http.message import HttpRequest, HttpResponse
from repro.http.server import HttpServer
from repro.measure.capture import PacketCapture
from repro.net.address import Endpoint
from repro.sim import units

from .conftest import make_world

RTT = units.ms(40)


def simple_handler(body=b"response-body"):
    def handler(request, responder):
        responder.respond(HttpResponse(status=200, body=body))
    return handler


def test_single_fetch_roundtrip(two_hosts):
    world = two_hosts
    HttpServer(world.server, 80, simple_handler(b"hello"))
    fetch = HttpFetch(world.client, Endpoint("server", 80),
                      HttpRequest(path="/x"))
    world.run()
    assert fetch.response is not None
    assert fetch.response.body == b"hello"
    assert fetch.response.status == 200


def captured_fetch(world, capture, request, hooks=None):
    """Fetch ``request`` on a port ``capture`` records, with payloads,
    as the query emulator does; returns (fetch, port)."""
    port = world.client.reserve_port()
    capture.open_port(port, store_payload=True)
    fetch = HttpFetch(world.client, Endpoint("server", 80), request, hooks,
                      local_port=port)
    return fetch, port


def test_fetch_hooks_fire_in_order(two_hosts):
    world = two_hosts
    capture = PacketCapture(world.sim, world.client)
    HttpServer(world.server, 80, simple_handler(b"abc"))
    events = []
    hooks = RequestHooks(
        on_complete=lambda r: events.append(("complete", world.sim.now,
                                             r.body)),
        on_failure=lambda m: events.append(("failure", world.sim.now, m)))
    fetch, port = captured_fetch(world, capture, HttpRequest(path="/"),
                                 hooks)
    world.run()
    packets = capture.close_port(port)
    last_data = max(e.time for e in packets
                    if e.direction == "in" and e.payload_len)
    # One completion, as the last response byte arrives; no failure.
    assert events == [("complete", last_data, b"abc")]
    assert fetch.response.body == b"abc"


def test_streamed_response_two_parts_timing(two_hosts):
    """Server sends part 1 immediately and part 2 after a delay; the
    client's capture must see the gap (this is the static/dynamic
    pattern)."""
    world = two_hosts
    sim = world.sim
    delay = 0.200

    def handler(request, responder):
        responder.send_head(200)
        responder.send_body(b"S" * 1000)
        def later():
            responder.send_body(b"D" * 1000)
            responder.finish()
        sim.schedule(delay, later)

    HttpServer(world.server, 80, handler)
    capture = PacketCapture(sim, world.client)
    fetch, port = captured_fetch(world, capture, HttpRequest(path="/q"))
    world.run()
    assert fetch.response.body == b"S" * 1000 + b"D" * 1000
    events = capture.close_port(port)
    stream = reconstruct_inbound_stream(events)
    arrivals = inbound_byte_arrivals(events)
    static, dynamic = chunk_spans(stream)
    assert stream[static.payload_start:static.payload_end] == b"S" * 1000
    assert stream[dynamic.payload_start:dynamic.payload_end] == b"D" * 1000
    static_done = arrival_time_of_offset(arrivals, static.payload_end - 1)
    first_dynamic = arrival_time_of_offset(arrivals, dynamic.payload_start)
    assert first_dynamic - static_done == pytest.approx(delay, abs=0.02)


def test_persistent_client_sequential_requests(two_hosts):
    world = two_hosts
    served_paths = []

    def handler(request, responder):
        served_paths.append(request.path)
        responder.respond(HttpResponse(body=b"resp:" +
                                       request.path.encode()))

    HttpServer(world.server, 80, handler)
    client = PersistentHttpClient(world.client, Endpoint("server", 80))
    got = []
    for i in range(3):
        client.request(HttpRequest(path="/req%d" % i),
                       RequestHooks(on_complete=lambda r: got.append(r.body)))
    world.run()
    assert served_paths == ["/req0", "/req1", "/req2"]
    assert got == [b"resp:/req0", b"resp:/req1", b"resp:/req2"]
    assert client.requests_completed == 3


def test_persistent_client_keeps_window_warm(two_hosts):
    """Second identical response must complete faster than the first
    because the congestion window carries over (split-TCP's core claim)."""
    world = two_hosts
    body = b"z" * 60_000

    def handler(request, responder):
        responder.respond(HttpResponse(body=body))

    HttpServer(world.server, 80, handler)
    client = PersistentHttpClient(world.client, Endpoint("server", 80))
    finish_times = []
    start_times = []

    def issue():
        start_times.append(world.sim.now)
        client.request(HttpRequest(path="/big"),
                       RequestHooks(on_complete=lambda r:
                                    finish_times.append(world.sim.now)))

    issue()
    world.sim.run()
    issue()
    world.sim.run()
    first = finish_times[0] - start_times[0]
    second = finish_times[1] - start_times[1]
    assert second < first - RTT  # at least one full RTT saved


def test_fetch_failure_hook_on_dead_server(two_hosts):
    world = two_hosts  # nothing listening on port 81
    failures = []
    fetch = HttpFetch(world.client, Endpoint("server", 81),
                      HttpRequest(path="/"),
                      RequestHooks(on_failure=failures.append))
    world.run(until=500.0)
    assert fetch.response is None
    assert failures


def test_server_counts_and_multiple_connections(two_hosts):
    world = two_hosts
    server = HttpServer(world.server, 80, simple_handler())
    fetches = [HttpFetch(world.client, Endpoint("server", 80),
                         HttpRequest(path="/%d" % i)) for i in range(4)]
    world.run()
    assert all(f.response is not None for f in fetches)
    assert server.requests_served == 4
    assert server.connections_accepted == 4


def test_streaming_under_loss_preserves_body():
    world = make_world(loss_rate=0.03, seed=9)

    def handler(request, responder):
        responder.send_head(200)
        responder.send_body(b"S" * 4000)
        world.sim.schedule(0.1, lambda: (responder.send_body(b"D" * 30_000),
                                         responder.finish()))

    HttpServer(world.server, 80, handler)
    fetch = HttpFetch(world.client, Endpoint("server", 80),
                      HttpRequest(path="/"))
    world.run(until=300.0)
    assert fetch.response is not None
    assert fetch.response.body == b"S" * 4000 + b"D" * 30_000
