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


def backend_links(scenario, frontend):
    """The FE's links to and from its back-end."""
    backend = scenario.service(Scenario.GOOGLE).backend_for_frontend(
        frontend)
    return [scenario.topology.node(a).links[b] for a, b in (
        (frontend.node.name, backend.node.name),
        (backend.node.name, frontend.node.name))]


def test_backend_outage_produces_502(scenario):
    """Kill the FE-BE path before a query: the user's session fails,
    naming the cause, instead of hanging."""
    vp = scenario.vantage_points[0]
    frontend = linked_frontend(scenario, vp)
    # Let the FE's pool establish first, then cut the link both ways.
    scenario.sim.run()
    for link in backend_links(scenario, frontend):
        link.fault_filter = lambda p, i: True

    (session,) = run_queries(scenario, [
        (scenario.sim.now, vp, Scenario.GOOGLE, frontend, kw())])[vp.name]
    # The fetch fails after retry exhaustion, when the static part is
    # out: the FE ends the response short rather than hanging forever
    # or passing the static part off as the whole page.
    assert session.completed_at is not None
    assert session.failed == "connection closed before response completed"


def test_backend_failure_after_static_fails_session_and_fe_recovers(
        scenario):
    """The back-end link dies after the FE flushed the static part: the
    session fails instead of completing with the static part alone, and
    once the link is back the FE's next query completes on a fresh
    pool connection."""
    vp = scenario.vantage_points[0]
    frontend = linked_frontend(scenario, vp)
    scenario.sim.run()  # the FE's pool connects
    links = backend_links(scenario, frontend)
    write_static = frontend._write_static

    def cut_after_static(state):
        write_static(state)
        for link in links:
            link.fault_filter = lambda p, i: True

    frontend._write_static = cut_after_static
    (session,) = run_queries(scenario, [
        (scenario.sim.now, vp, Scenario.GOOGLE, frontend, kw())])[vp.name]
    assert not session.complete
    assert session.failed == "connection closed before response completed"
    assert session.response_size == 0

    del frontend._write_static
    for link in links:
        link.fault_filter = None
    (again,) = run_queries(scenario, [
        (scenario.sim.now, vp, Scenario.GOOGLE, frontend,
         kw("second probe"))])[vp.name]
    assert again.complete
    assert again.failed is None
