"""Front-end (FE) servers.

A :class:`FrontEndServer` is the paper's central object: a proxy at the
"edge of the cloud" that

1. terminates the user's TCP connection (split TCP),
2. serves the **static portion** of the result page from its cache
   immediately (after a load-dependent processing delay), and
3. forwards the query to the back-end data center over a **persistent,
   already-warm connection**, appending the dynamic portion to the user's
   response whenever the back-end delivers it.

Ground truth: every forwarded query is logged with the instant it was
sent to the back-end and the instant the back-end's response finished
arriving — the true ``Tfetch`` that the paper's inference framework
bounds from the outside via ``Tdelta <= Tfetch <= Tdynamic``.

An ablation switch (``cache_static=False``) turns off role (2): the FE
then forwards the query and relays the *entire* page from the back-end,
which is what the no-FE-cache benchmarks measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cache import CacheHierarchySpec, CacheTier, ContentCache
from repro.content.page import PageGenerator
from repro.http.client import PersistentHttpClient, RequestHooks
from repro.http.message import HttpRequest, HttpResponse
from repro.http.server import HttpServer, Responder
from repro.net.address import Endpoint
from repro.net.geo import GeoPoint
from repro.net.node import Node
from repro.obs import runtime as _obs
from repro.services.load import FrontEndLoadModel
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.tcp.config import TcpConfig
from repro.tcp.congestion import FixedWindowController

#: Port on which front-end servers face users.
FRONTEND_PORT = 80


@dataclass
class FetchRecord:
    """Ground truth for one FE-to-BE fetch."""

    query_id: str
    forwarded_at: float
    completed_at: Optional[float] = None
    response_size: int = 0

    @property
    def tfetch(self) -> Optional[float]:
        """True FE-BE fetch time (None until the fetch completes)."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.forwarded_at


class _RequestState:
    """Per-user-request assembly state on the FE."""

    __slots__ = ("responder", "query_id", "keyword_text", "server",
                 "static_sent", "dynamic_body", "failed", "done",
                 "fill_static")

    def __init__(self, responder: Responder, query_id: str,
                 keyword_text: str = "", server=None):
        self.responder = responder
        self.query_id = query_id
        self.keyword_text = keyword_text
        self.server = server
        self.static_sent = False
        self.dynamic_body: Optional[bytes] = None
        self.failed = False
        self.done = False
        # True when this request missed every cache tier and the
        # arriving full page should fill the hierarchy.
        self.fill_static = False

    def maybe_complete(self) -> None:
        """Send the dynamic part once both halves are ready."""
        if self.static_sent and self.dynamic_body is not None:
            self.responder.send_body(self.dynamic_body)
            self.responder.finish()
            self.dynamic_body = None
            self.mark_done()

    def mark_done(self) -> None:
        """Release this request's concurrency slot (idempotent)."""
        if self.done:
            return
        self.done = True
        if self.server is not None:
            self.server.active_requests = max(
                0, self.server.active_requests - 1)


class FrontEndServer:
    """A split-TCP front-end proxy with a static-content cache."""

    def __init__(self, sim: Simulator, node: Node, tcp_host, *,
                 service_name: str,
                 page_generator: PageGenerator,
                 load_model: FrontEndLoadModel,
                 backend_host: str,
                 streams: RandomStreams,
                 backend_port: int = 8080,
                 cache_static: bool = True,
                 cache_results: bool = False,
                 pool_size: int = 2,
                 backend_tcp_config: Optional[TcpConfig] = None,
                 backend_window_bytes: Optional[int] = None,
                 port: int = FRONTEND_PORT,
                 keyed_draws: bool = False,
                 cache_spec: Optional[CacheHierarchySpec] = None,
                 cache_seed: int = 0,
                 regional_cache: Optional[ContentCache] = None):
        if pool_size < 1:
            raise ValueError("pool_size must be >= 1")
        self.sim = sim
        self.node = node
        self.service_name = service_name
        self.pages = page_generator
        self.load_model = load_model
        self.backend_endpoint = Endpoint(backend_host, backend_port)
        self.streams = streams
        self.keyed_draws = keyed_draws
        self.cache_static = cache_static
        self.cache_results = cache_results
        self.port = port
        self.fetch_log: Dict[str, FetchRecord] = {}
        # The static-content cache the paper treats as a black box.
        # The degenerate (infinite) spec always hits — bit-identical to
        # the plain cache_static boolean; finite specs start cold, and
        # misses turn into full-page back-end fetches.
        self.cache_spec = cache_spec if cache_spec is not None \
            else CacheHierarchySpec()
        self.static_cache = CacheTier(
            self.cache_spec, name=node.name, seed=cache_seed,
            regional_cache=regional_cache)
        #: Ground truth for cache-lab validation: query_id -> hit level
        #: (0 = FE, 1 = regional, -1 = origin).  Only populated for
        #: finite caches; pruned with fetch_log in streaming campaigns.
        self.static_hit_log: Dict[str, int] = {}
        self.result_cache = ContentCache(
            self.cache_spec.result, name="%s/result" % node.name,
            seed=cache_seed, metric_prefix="fe.result_cache_")
        self.result_cache_hits = 0
        self.requests_served = 0
        self.active_requests = 0
        self.peak_concurrency = 0
        self.server = HttpServer(tcp_host, port, self._handle)
        self._pool: List[PersistentHttpClient] = []
        for index in range(pool_size):
            controller = None
            if backend_window_bytes is not None:
                controller = FixedWindowController(backend_window_bytes)
            self._pool.append(PersistentHttpClient(
                tcp_host, self.backend_endpoint,
                config=backend_tcp_config, controller=controller))

    # ------------------------------------------------------------------
    @property
    def location(self) -> Optional[GeoPoint]:
        return self.node.location

    @property
    def name(self) -> str:
        return self.node.name

    def _pick_backend_client(self) -> PersistentHttpClient:
        """Least-loaded persistent connection in the pool."""
        return min(self._pool, key=lambda c: c.queue_depth)

    # ------------------------------------------------------------------
    def _handle(self, request: HttpRequest, responder: Responder) -> None:
        if not request.path.startswith("/search"):
            responder.respond(HttpResponse(
                status=404, body=b"not found: " +
                request.path.encode("latin-1", errors="replace")))
            return
        self.requests_served += 1
        if _obs.enabled:
            _obs.metrics.inc("fe.requests")
        query_id = request.query.get(
            "id", "fe-%s-%d" % (self.node.name, self.requests_served))
        state = _RequestState(responder, query_id,
                              request.query.get("q", ""), self)
        self.active_requests += 1
        self.peak_concurrency = max(self.peak_concurrency,
                                    self.active_requests)
        delay = self.load_model.draw(  # simlint: unit[s]
            self.streams, "fe-load/%s" % self.node.name,
            concurrency=self.active_requests,
            key=query_id if self.keyed_draws else None)
        static_level = 0
        if self.cache_static:
            static_level = self.static_cache.lookup(state.keyword_text)
            if self.static_cache.finite:
                # Never needs fast-path replication: finite content
                # caches are statically bypassed by admission
                # ("finite-content-cache" in sim/replay/admission.py),
                # so no materialized session can skip this write.
                self.static_hit_log[query_id] = static_level  # simlint: ignore[EFF001]
        if self.cache_results and self.cache_static \
                and static_level != CacheTier.ORIGIN:
            cached = self.result_cache.get(request.query.get("q", ""))
            if cached is not None:
                # Counterfactual mode (the paper shows real services do
                # NOT do this): serve the dynamic part from the FE cache
                # with no back-end fetch at all.
                self.result_cache_hits += 1
                # Finite result caches export their own counters
                # (fe.result_cache_hits/_misses/_evictions, sim scope);
                # this legacy host-scope counter covers the unbounded
                # default.
                if _obs.enabled and not self.result_cache.spec.finite:
                    _obs.metrics.inc("fe.result_cache_hits")
                state.dynamic_body = cached
                self.sim.schedule(
                    delay + self.static_cache.fetch_delay(static_level),
                    self._write_static, state)
                return
        if self.cache_static and static_level != CacheTier.ORIGIN:
            # Forward to the back-end immediately; write the cached
            # static prefix after the FE processing delay (plus the
            # regional round trip when the hit was one tier down).
            self._forward(request, state, full_page=False)
            self.sim.schedule(
                delay + self.static_cache.fetch_delay(static_level),
                self._write_static, state)
        else:
            # No usable static copy — either the ablation switch is off
            # or every cache tier missed: everything waits for the
            # back-end's full page.
            state.fill_static = (self.cache_static
                                 and static_level == CacheTier.ORIGIN)
            self.sim.schedule(delay, self._forward, request, state, True)

    def record_replayed_fetch(self, query_id: str, forwarded_at: float,
                              completed_at: float,
                              response_size: int) -> None:
        """Reproduce the server-side footprint of one replayed request.

        The session-replay cache (:mod:`repro.sim.replay`) skips the
        packet-level simulation of an admitted session but must leave
        the same ground-truth trail: the fetch-log record and the
        request counters.  Admission guarantees the session ran alone on
        this FE, so concurrency bookkeeping reduces to "one request".
        """
        self.requests_served += 1
        if _obs.enabled:
            # Keeps fe.requests == requests_served under replay too.
            _obs.metrics.inc("fe.requests")
        self.peak_concurrency = max(self.peak_concurrency, 1)
        self.server.requests_served += 1
        self.server.connections_accepted += 1
        self.fetch_log[query_id] = FetchRecord(
            query_id=query_id, forwarded_at=forwarded_at,
            completed_at=completed_at, response_size=response_size)
        # With the pool idle (guaranteed by admission), the real run
        # would have routed the fetch to the least-loaded client.
        self._pick_backend_client().requests_completed += 1

    def _write_static(self, state: _RequestState) -> None:
        if state.failed:
            return
        state.responder.send_head(200, {
            "X-Served-By": self.node.name,
            "X-Service": self.service_name,
        })
        state.responder.send_body(self.pages.static_content())
        state.static_sent = True
        state.maybe_complete()

    def _forward(self, request: HttpRequest, state: _RequestState,
                 full_page: bool) -> None:
        headers = {"Host": self.backend_endpoint.host}
        if full_page:
            headers["X-Full-Page"] = "1"
        backend_request = HttpRequest(path=request.path, headers=headers)
        record = FetchRecord(query_id=state.query_id,
                             forwarded_at=self.sim.now)
        self.fetch_log[state.query_id] = record
        hooks = RequestHooks(
            on_complete=lambda response: self._fetched(
                state, record, response, full_page),
            on_failure=lambda message: self._fetch_failed(state, message))
        self._pick_backend_client().request(backend_request, hooks)

    def _fetched(self, state: _RequestState, record: FetchRecord,
                 response: HttpResponse, full_page: bool) -> None:
        record.completed_at = self.sim.now
        record.response_size = len(response.body)
        if self.cache_results and not full_page:
            self.result_cache.insert(state.keyword_text,
                                     len(response.body),
                                     value=response.body)
        if state.fill_static:
            # The full page just arrived from the origin; keep the
            # static portion per the hierarchy's fill policy so later
            # requests for this keyword can hit.
            self.static_cache.fill_from_origin(
                state.keyword_text, len(self.pages.static_content()))
        if full_page:
            state.responder.send_head(200, {
                "X-Served-By": self.node.name,
                "X-Service": self.service_name,
            })
            state.responder.send_body(response.body)
            state.responder.finish()
            state.mark_done()
        else:
            state.dynamic_body = response.body
            state.maybe_complete()

    def _fetch_failed(self, state: _RequestState, message: str) -> None:
        state.failed = True
        if not state.responder.finished:
            if not state.static_sent:
                state.responder.send_head(502)
            state.responder.finish()
        state.mark_done()
