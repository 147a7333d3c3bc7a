"""Tests for the service layer: back-end, front-end, deployment."""

import pytest

from repro.analysis.boundary import chunk_spans
from repro.analysis.stream import (
    arrival_time_of_offset,
    inbound_byte_arrivals,
    reconstruct_inbound_stream,
)
from repro.content.keywords import Keyword
from repro.http.client import HttpFetch
from repro.http.message import HttpRequest, build_query_path
from repro.measure.capture import PacketCapture
from repro.net.address import Endpoint
from repro.net.geo import GeoPoint
from repro.net.topology import Topology
from repro.services.backend import KeywordRegistry
from repro.services.deployment import (
    ServiceDeployment,
    bing_akamai_profile,
    google_like_profile,
)
from repro.services.load import (
    TPROC_FLOOR,
    FrontEndLoadModel,
    ProcessingModel,
)
from repro.sim import units
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.tcp.host import TcpHost


# ---------------------------------------------------------------------------
# load models
# ---------------------------------------------------------------------------
def test_processing_model_mean_structure():
    model = ProcessingModel(base=0.1, complexity_weight=1.0,
                            popularity_discount=0.5, sigma=0.0)
    cheap = Keyword(text="popular", popularity=1.0, complexity=0.0)
    costly = Keyword(text="complex stuff", popularity=0.0, complexity=1.0)
    assert model.mean_for(cheap) == pytest.approx(0.05)
    assert model.mean_for(costly) == pytest.approx(0.2)


def test_processing_model_noise_is_centred():
    model = ProcessingModel(base=0.1, sigma=0.3)
    keyword = Keyword(text="k", popularity=0.5, complexity=0.5)
    streams = RandomStreams(7)
    draws = [model.draw(keyword, streams, "s") for _ in range(2000)]
    mean = model.mean_for(keyword)
    # Median of lognormal noise is 1.0 -> median draw near mean_for.
    draws.sort()
    assert draws[1000] == pytest.approx(mean, rel=0.1)
    assert min(draws) >= TPROC_FLOOR


def test_frontend_load_model_variability_ordering():
    streams = RandomStreams(3)
    stable = FrontEndLoadModel(median_delay=0.004, sigma=0.1)
    shared = FrontEndLoadModel(median_delay=0.012, sigma=0.6)
    stable_draws = [stable.draw(streams, "a") for _ in range(1000)]
    shared_draws = [shared.draw(streams, "b") for _ in range(1000)]

    def spread(values):
        values = sorted(values)
        return values[900] - values[100]

    assert sum(shared_draws) / 1000 > sum(stable_draws) / 1000
    assert spread(shared_draws) > spread(stable_draws)


def test_load_model_validation():
    with pytest.raises(ValueError):
        FrontEndLoadModel(median_delay=0)
    with pytest.raises(ValueError):
        ProcessingModel(base=-1)
    with pytest.raises(ValueError):
        ProcessingModel(popularity_discount=1.0)


# ---------------------------------------------------------------------------
# keyword registry
# ---------------------------------------------------------------------------
def test_registry_roundtrip_and_fallback():
    registry = KeywordRegistry()
    keyword = Keyword(text="known", popularity=0.9, complexity=0.1)
    registry.register(keyword)
    assert registry.resolve("known") is keyword
    fallback = registry.resolve("some novel three words")
    assert fallback.popularity == pytest.approx(0.2)
    assert fallback.granularity == 4
    # Deterministic fallback.
    assert registry.resolve("x y") == registry.resolve("x y")


# ---------------------------------------------------------------------------
# full deployment: client -> FE -> BE
# ---------------------------------------------------------------------------
class DeployedWorld:
    """One service deployment plus a single client node."""

    def __init__(self, profile=None, cache_static=True,
                 client_fe_rtt=units.ms(40), seed=0):
        self.sim = Simulator()
        self.streams = RandomStreams(seed)
        self.topology = Topology(self.sim, self.streams)
        profile = profile or google_like_profile()
        self.deployment = ServiceDeployment(
            self.sim, self.topology, self.streams, profile,
            fe_sites=[("edge", GeoPoint(44.9, -93.2))],
            be_sites=[("dc", GeoPoint(35.9, -81.5))],
            cache_static=cache_static)
        client_node = self.topology.add_node("client", GeoPoint(44.9, -93.3))
        self.client = TcpHost(self.sim, client_node, streams=self.streams)
        self.capture = PacketCapture(self.sim, self.client)
        fe_name = self.deployment.frontends[0].node.name
        self.topology.connect("client", fe_name, delay=client_fe_rtt / 2,
                              bandwidth=units.mbps(100))
        self.fe_endpoint = Endpoint(fe_name, 80)

    def query(self, keyword, query_id="q1", local_port=None):
        self.deployment.register_keywords([keyword])
        path = build_query_path("/search", {"q": keyword.text,
                                            "id": query_id})
        return HttpFetch(self.client, self.fe_endpoint,
                         HttpRequest(path=path), local_port=local_port)

    def captured_query(self, keyword, query_id):
        """Query on a port the client's capture records with payloads,
        as the query emulator does; returns (fetch, port)."""
        port = self.client.reserve_port()
        self.capture.open_port(port, store_payload=True)
        return self.query(keyword, query_id, local_port=port), port

    def chunk_arrivals(self, port):
        """Each response chunk's (payload, first byte time, last byte
        time), from the packets captured on ``port``."""
        events = self.capture.close_port(port)
        stream = reconstruct_inbound_stream(events)
        arrivals = inbound_byte_arrivals(events)
        return [(stream[span.payload_start:span.payload_end],
                 arrival_time_of_offset(arrivals, span.payload_start),
                 arrival_time_of_offset(arrivals, span.payload_end - 1))
                for span in chunk_spans(stream)]


def kw(text="test query", popularity=0.5, complexity=0.5):
    return Keyword(text=text, popularity=popularity, complexity=complexity)


def test_query_returns_full_page():
    world = DeployedWorld()
    fetch = world.query(kw("hello world"))
    world.sim.run()
    assert fetch.response is not None
    pages = world.deployment.pages
    expected = pages.static_content() + pages.dynamic_content(
        kw("hello world"))
    assert fetch.response.body == expected
    assert fetch.response.headers["X-Service"] == "google-like"


def test_ground_truth_logs_populated():
    world = DeployedWorld()
    fetch = world.query(kw("logged query"), query_id="qq")
    world.sim.run()
    assert fetch.response is not None
    fe = world.deployment.frontends[0]
    be = world.deployment.backends[0]
    assert "qq" in fe.fetch_log
    assert "qq" in be.query_log
    record = fe.fetch_log["qq"]
    truth = be.query_log["qq"]
    assert record.tfetch is not None
    # Tfetch must exceed Tproc plus one FE-BE round trip.
    rtt_be = world.topology.rtt(fe.node.name, be.node.name)
    assert record.tfetch > truth.tproc + rtt_be * 0.9
    assert record.response_size == len(
        world.deployment.pages.dynamic_content(kw("logged query")))


def test_static_arrives_before_dynamic():
    world = DeployedWorld()
    keyword = kw("timing probe")
    fetch, port = world.captured_query(keyword, "t")
    world.sim.run()
    assert fetch.response is not None
    pages = world.deployment.pages
    # The FE flushes the cached static prefix as one chunk and the
    # back-end's dynamic part as the next.
    (static, _, static_done), (dynamic, first_dynamic, _) = \
        world.chunk_arrivals(port)
    assert static == pages.static_content()
    assert dynamic == pages.dynamic_content(keyword)
    assert first_dynamic >= static_done
    # The gap reflects the FE-BE fetch (tens of ms here).
    assert first_dynamic - static_done > units.ms(5)


def test_cache_disabled_everything_waits_for_backend():
    cached = DeployedWorld(cache_static=True, seed=1)
    uncached = DeployedWorld(cache_static=False, seed=1)
    first_byte_times = {}
    for name, world in (("cached", cached), ("uncached", uncached)):
        keyword = kw("ablation")
        fetch, port = world.captured_query(keyword, "a")
        world.sim.run()
        assert fetch.response is not None
        pages = world.deployment.pages
        expected = pages.static_content() + pages.dynamic_content(keyword)
        assert fetch.response.body == expected
        chunks = world.chunk_arrivals(port)
        assert b"".join(chunk for chunk, _, _ in chunks) == expected
        first_byte_times[name] = chunks[0][1]
    # Without the FE cache the first byte waits for the whole fetch.
    assert first_byte_times["uncached"] > \
        first_byte_times["cached"] + units.ms(20)


def test_bing_profile_slower_than_google_profile():
    durations = {}
    for name, profile in (("google", google_like_profile()),
                          ("bing", bing_akamai_profile())):
        world = DeployedWorld(profile=profile, seed=2)
        fetch = world.query(kw("same query for both"))
        world.sim.run()
        assert fetch.response is not None
        # Overall response time from fetch creation (t=0) to completion.
        durations[name] = world.sim.now
    assert durations["bing"] > durations["google"] + 0.1


def test_deployment_lookups():
    sim = Simulator()
    streams = RandomStreams(0)
    topology = Topology(sim, streams)
    deployment = ServiceDeployment(
        sim, topology, streams, google_like_profile(),
        fe_sites=[("west", GeoPoint(37.4, -122.1)),
                  ("east", GeoPoint(40.7, -74.0))],
        be_sites=[("dc-west", GeoPoint(45.6, -121.2)),
                  ("dc-east", GeoPoint(35.9, -81.5))])
    client_location = GeoPoint(34.05, -118.24)  # Los Angeles
    fe = deployment.frontend_by_name("west")
    be = deployment.backend_for_frontend(fe)
    assert "dc-west" in be.node.name
    assert fe.location.distance_miles(client_location) < \
        deployment.frontend_by_name("east").location.distance_miles(
            client_location)
    assert deployment.frontend_by_name("east").node.name.endswith("east")
    with pytest.raises(KeyError):
        deployment.frontend_by_name("nope")


def test_deployment_requires_sites():
    sim = Simulator()
    streams = RandomStreams(0)
    topology = Topology(sim, streams)
    with pytest.raises(ValueError):
        ServiceDeployment(sim, topology, streams, google_like_profile(),
                          fe_sites=[], be_sites=[("x", GeoPoint(0, 0))])
