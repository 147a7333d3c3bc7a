"""Back-end data centers.

A :class:`BackendDataCenter` owns a node "deep in the cloud", runs an
HTTP server on the internal service port, and answers search queries:
on arrival it draws a processing time from its :class:`ProcessingModel`,
waits that long, then returns the dynamically generated content.

The data center also keeps a **ground-truth log** of every query it
served (arrival time, drawn ``Tproc``, response size).  The paper could
never observe these quantities — its contribution is inferring them from
the outside.  Recording them lets the reproduction *validate* the
inference framework against truth, a stronger check than the original
study could perform.  Nothing in the measurement/analysis path reads
this log.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.content.keywords import Keyword
from repro.content.page import PageGenerator
from repro.http.message import HttpRequest, HttpResponse
from repro.http.server import HttpServer, Responder
from repro.net.geo import GeoPoint
from repro.net.node import Node
from repro.obs import runtime as _obs
from repro.services.load import ProcessingModel
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams

#: Internal port on which back-end data centers serve front-end fetches.
BACKEND_PORT = 8080


@dataclass
class QueryRecord:
    """Ground truth for one query served by a back-end."""

    query_id: str
    keyword_text: str
    arrival_time: float
    tproc: float
    response_size: int = 0
    completed_time: Optional[float] = None


class KeywordRegistry:
    """Maps query text back to :class:`Keyword` attributes.

    The emulator registers the keywords it will use; unknown query text
    falls back to neutral attributes derived deterministically from the
    text, so the back-end never crashes on a novel query.
    """

    def __init__(self):
        self._by_text: Dict[str, Keyword] = {}

    def register(self, keyword: Keyword) -> None:
        self._by_text[keyword.text] = keyword

    def register_all(self, keywords) -> None:
        for keyword in keywords:
            self.register(keyword)

    def resolve(self, text: str) -> Keyword:
        known = self._by_text.get(text)
        if known is not None:
            return known
        # Deterministic fallback: popularity/complexity from text shape.
        word_count = max(1, len(text.split()))
        return Keyword(text=text or "(empty)",
                       popularity=0.2,
                       complexity=min(1.0, 0.15 * word_count),
                       granularity=word_count)


class BackendDataCenter:
    """A simulated search back-end data center."""

    def __init__(self, sim: Simulator, node: Node, *,
                 service_name: str,
                 page_generator: PageGenerator,
                 processing_model: ProcessingModel,
                 registry: KeywordRegistry,
                 streams: RandomStreams,
                 tcp_host,
                 keyed_draws: bool = False):
        self.sim = sim
        self.node = node
        self.service_name = service_name
        self.pages = page_generator
        self.processing = processing_model
        self.registry = registry
        self.streams = streams
        self.keyed_draws = keyed_draws
        self.query_log: Dict[str, QueryRecord] = {}
        self.queries_served = 0
        self.server = HttpServer(tcp_host, BACKEND_PORT, self._handle)

    @property
    def location(self) -> Optional[GeoPoint]:
        return self.node.location

    # ------------------------------------------------------------------
    def _handle(self, request: HttpRequest, responder: Responder) -> None:
        if not request.path.startswith("/search"):
            responder.respond(HttpResponse(status=404, body=b"not found"))
            return
        params = request.query
        text = params.get("q", "")
        query_id = params.get("id", "anon-%d" % self.queries_served)
        keyword = self.registry.resolve(text)
        tproc = self.processing.draw(
            keyword, self.streams, "tproc/%s" % self.service_name,
            key=query_id if self.keyed_draws else None)
        record = QueryRecord(query_id=query_id, keyword_text=text,
                             arrival_time=self.sim.now, tproc=tproc)
        self.query_log[query_id] = record
        self.queries_served += 1
        if _obs.enabled:
            _obs.metrics.inc("be.queries")
        include_static = request.headers.get("X-Full-Page") == "1"
        self.sim.schedule(tproc, self._respond, responder, keyword,
                          record, include_static)

    def record_replayed_query(self, query_id: str, keyword_text: str,
                              arrival_time: float, tproc: float,
                              response_size: int,
                              completed_time: float) -> None:
        """Reproduce the ground-truth footprint of one replayed query.

        Counterpart of
        :meth:`repro.services.frontend.FrontEndServer.record_replayed_fetch`
        for the back-end side: the session-replay cache calls this
        instead of driving the FE-BE fetch packet by packet.
        """
        self.query_log[query_id] = QueryRecord(
            query_id=query_id, keyword_text=keyword_text,
            arrival_time=arrival_time, tproc=tproc,
            response_size=response_size, completed_time=completed_time)
        self.queries_served += 1
        if _obs.enabled:
            # Keeps be.queries == queries_served under replay too.
            _obs.metrics.inc("be.queries")
        # The fetch rides a pre-existing persistent pool connection, so
        # only the request counter moves — never connections_accepted.
        self.server.requests_served += 1

    def _respond(self, responder: Responder, keyword: Keyword,
                 record: QueryRecord, include_static: bool) -> None:
        body = self.pages.dynamic_content(keyword)
        if include_static:
            body = self.pages.static_content() + body
        record.response_size = len(body)
        record.completed_time = self.sim.now
        responder.respond(HttpResponse(
            status=200,
            headers={"X-Service": self.service_name,
                     "X-Query-Id": record.query_id},
            body=body))
