"""The in-house search query emulator.

The paper: "we develop an in-house user search query emulator, which
performs exactly the same functionality as the web-based search box".
:class:`QueryEmulator` does the same against the simulated services: it
issues one GET per query on a *fresh* TCP connection (as browsers of the
era did for search result pages) toward a chosen front-end server,
captures the packet trace of that connection, and packages everything
into a :class:`~repro.measure.session.QuerySession`.

:meth:`repro.sim.executor.SessionExecutor.submit`, the one place a
session starts, drives both steps of a query:
:meth:`QueryEmulator.open_session`, then :meth:`QueryEmulator.simulate`
unless a fast path serves the session from a timeline.
"""

from __future__ import annotations

from typing import List

from repro.content.keywords import Keyword
from repro.http.client import HttpFetch, RequestHooks
from repro.http.message import HttpRequest, build_query_path
from repro.measure.capture import PacketCapture
from repro.measure.session import QuerySession
from repro.services.frontend import FRONTEND_PORT, FrontEndServer
from repro.net.address import Endpoint
from repro.testbed.scenario import Scenario
from repro.testbed.vantage import VantagePoint

#: Query ids are namespaced by vantage point (ids must be globally
#: unique: they key the ground-truth fetch/query logs) and use a fixed
#: width counter so request sizes stay stable across a campaign.
_QUERY_ID_TEMPLATE = "q-%s-%06d"


class QueryEmulator:
    """Issues search queries from one vantage point."""

    def __init__(self, scenario: Scenario, vp: VantagePoint,
                 store_payload: bool = False):
        self.scenario = scenario
        self.vp = vp
        self.tcp_host = scenario.client_host(vp)
        self.capture = PacketCapture(scenario.sim, self.tcp_host.node,
                                     store_payload=store_payload)
        self.sessions: List[QuerySession] = []
        self._counter = 0

    # ------------------------------------------------------------------
    def next_query_id(self) -> str:
        self._counter += 1
        return _QUERY_ID_TEMPLATE % (self.vp.name, self._counter)

    def open_session(self, service_name: str, frontend: FrontEndServer,
                     keyword: Keyword) -> QuerySession:
        """Open one query at the current instant and keep its session.

        Registers the keyword, draws the query id and reserves the
        ephemeral port, the same on every execution path.  The caller
        must have linked the vantage point to ``frontend`` (see
        :meth:`Scenario.link_client_to_frontend`).
        """
        service = self.scenario.service(service_name)
        service.register_keywords([keyword])
        session = QuerySession(
            query_id=self.next_query_id(),
            service=service_name,
            vp_name=self.vp.name,
            fe_name=frontend.node.name,
            keyword=keyword,
            started_at=self.scenario.sim.now,
            path_rtt=self.scenario.client_fe_rtt(self.vp, frontend,
                                                 service))
        session.local_port = self.tcp_host.reserve_port()
        self.sessions.append(session)
        return session

    def simulate(self, session: QuerySession,
                 frontend: FrontEndServer) -> None:
        """Send an opened session's GET on a fresh connection; the
        session fills itself in as the response arrives."""
        path = build_query_path("/search", {"q": session.keyword.text,
                                            "id": session.query_id})
        hooks = RequestHooks(
            on_complete=lambda response: self._complete(session, response),
            on_failure=lambda message: self._fail(session, message))
        # The SYN leaves inside connect: open the capture first.
        self.capture.open_port(session.local_port)
        HttpFetch(self.tcp_host, Endpoint(frontend.node.name, FRONTEND_PORT),
                  HttpRequest(path=path, headers={"Host": session.service}),
                  hooks, local_port=session.local_port)

    # ------------------------------------------------------------------
    def _complete(self, session: QuerySession, response) -> None:
        session.completed_at = self.scenario.sim.now
        session.response_size = len(response.body)
        self._harvest(session)

    def _fail(self, session: QuerySession, message: str) -> None:
        session.failed = message
        session.completed_at = self.scenario.sim.now
        self._harvest(session)

    def _harvest(self, session: QuerySession) -> None:
        """Close this session's port on the capture and keep its
        packets."""
        session.events = self.capture.close_port(session.local_port)
