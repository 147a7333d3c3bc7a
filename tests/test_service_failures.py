"""Failure-path tests: 404 routing and back-end outages."""

import pytest

from repro.content.keywords import Keyword
from repro.http.client import HttpFetch
from repro.http.message import HttpRequest
from repro.measure.driver import run_queries
from repro.net.address import Endpoint
from repro.services.backend import BACKEND_PORT
from repro.services.frontend import FRONTEND_PORT
from repro.testbed.scenario import Scenario, ScenarioConfig


def kw(text="failure probe"):
    return Keyword(text=text, popularity=0.5, complexity=0.5)


@pytest.fixture
def scenario():
    return Scenario(ScenarioConfig(seed=17, vantage_count=6))


def linked_frontend(scenario, vp, service_name=Scenario.GOOGLE):
    frontend, _ = scenario.connect_default(service_name, vp)
    return frontend


def test_frontend_404_for_unknown_path(scenario):
    vp = scenario.vantage_points[0]
    frontend = linked_frontend(scenario, vp)
    fetch = HttpFetch(scenario.client_host(vp),
                      Endpoint(frontend.node.name, FRONTEND_PORT),
                      HttpRequest(path="/favicon.ico"))
    scenario.sim.run()
    assert fetch.response is not None
    assert fetch.response.status == 404
    assert b"/favicon.ico" in fetch.response.body
    assert frontend.requests_served == 0  # search counter untouched


def test_backend_404_for_unknown_path(scenario):
    vp = scenario.vantage_points[0]
    service = scenario.service(Scenario.GOOGLE)
    frontend = linked_frontend(scenario, vp)
    backend = service.backend_for_frontend(frontend)
    delay = vp.one_way_delay_to(backend.location, None)
    scenario.topology.connect(vp.name, backend.node.name, delay=delay)
    fetch = HttpFetch(scenario.client_host(vp),
                      Endpoint(backend.node.name, BACKEND_PORT),
                      HttpRequest(path="/admin"))
    scenario.sim.run()
    assert fetch.response is not None
    assert fetch.response.status == 404
    assert backend.queries_served == 0


def test_backend_outage_produces_502(scenario):
    """Kill the FE-BE path before a query: the user gets a 502-ish
    response instead of a hang."""
    vp = scenario.vantage_points[0]
    service = scenario.service(Scenario.GOOGLE)
    frontend = linked_frontend(scenario, vp)
    backend = service.backend_for_frontend(frontend)
    # Let the FE's pool establish first, then cut the link both ways.
    scenario.sim.run()
    fe_node = scenario.topology.node(frontend.node.name)
    be_node = scenario.topology.node(backend.node.name)
    fe_node.links[backend.node.name].fault_filter = lambda p, i: True
    be_node.links[frontend.node.name].fault_filter = lambda p, i: True

    (session,) = run_queries(scenario, [
        (scenario.sim.now, vp, Scenario.GOOGLE, frontend, kw())])[vp.name]
    # The fetch fails after retry exhaustion; the FE finishes the
    # response (static-only or 502) rather than hanging forever.
    assert session.completed_at is not None
