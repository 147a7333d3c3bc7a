"""HTTP client on top of the simulated TCP stack.

Two client shapes are provided:

* :class:`HttpFetch` — one request on a fresh connection, the shape of the
  paper's query emulator (every search query opened a new connection,
  including in the "search as you type" mode, see Section 6);
* :class:`PersistentHttpClient` — a long-lived connection issuing
  requests strictly in sequence, the shape of a front-end server's warm
  connection to its back-end data center.

Both expose callback hooks (``on_head``, ``on_body``, ``on_complete``,
``on_failure``) so callers can observe partial delivery — essential for
measuring when the first/last static and dynamic bytes arrive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.http.message import HttpError, HttpRequest, HttpResponse, ResponseParser
from repro.net.address import Endpoint
from repro.tcp.config import TcpConfig
from repro.tcp.congestion import CongestionController
from repro.tcp.connection import Connection, TcpApp
from repro.tcp.host import TcpHost


@dataclass
class RequestHooks:
    """Callback bundle for one HTTP request."""

    on_head: Optional[Callable[[HttpResponse], None]] = None
    on_body: Optional[Callable[[bytes], None]] = None
    on_complete: Optional[Callable[[HttpResponse], None]] = None
    on_failure: Optional[Callable[[str], None]] = None

    def head(self, response: HttpResponse) -> None:
        if self.on_head:
            self.on_head(response)

    def body(self, data: bytes) -> None:
        if self.on_body:
            self.on_body(data)

    def complete(self, response: HttpResponse) -> None:
        if self.on_complete:
            self.on_complete(response)

    def failure(self, message: str) -> None:
        if self.on_failure:
            self.on_failure(message)


class HttpFetch(TcpApp):
    """One GET on a dedicated connection.

    The connection is opened immediately; the request goes out with the
    handshake ACK; the connection is closed once the response completes.
    """

    def __init__(self, tcp_host: TcpHost, remote: Endpoint,
                 request: HttpRequest, hooks: Optional[RequestHooks] = None,
                 config: Optional[TcpConfig] = None,
                 local_port: Optional[int] = None):
        self.request = request
        self.hooks = hooks or RequestHooks()
        self.parser = ResponseParser()
        self.response: Optional[HttpResponse] = None
        self.failed: Optional[str] = None
        self._complete = False
        self.conn: Connection = tcp_host.connect(remote, self,
                                                 local_port=local_port,
                                                 config=config)

    @property
    def complete(self) -> bool:
        return self._complete

    # TcpApp interface -------------------------------------------------
    def on_established(self, conn: Connection) -> None:
        conn.send(self.request.encode())

    def on_data(self, conn: Connection, data: bytes) -> None:
        try:
            events = self.parser.feed(data)
        except HttpError as exc:
            self.failed = str(exc)
            self.hooks.failure(self.failed)
            conn.abort("malformed response")
            return
        for kind, payload in events:
            if kind == "head":
                self.hooks.head(payload)
            elif kind == "body":
                self.hooks.body(payload)
            elif kind == "end":
                self.response = payload
                self._complete = True
                self.hooks.complete(payload)
                conn.close()

    def on_close(self, conn: Connection) -> None:
        if not self._complete and self.failed is None:
            self.failed = "connection closed before response completed"
            self.hooks.failure(self.failed)

    def on_error(self, conn: Connection, message: str) -> None:
        if not self._complete and self.failed is None:
            self.failed = message
            self.hooks.failure(message)


@dataclass
class _PendingRequest:
    request: HttpRequest
    hooks: RequestHooks
    issued_at: Optional[float] = None


class PersistentHttpClient(TcpApp):
    """A persistent connection carrying sequential request/response pairs.

    This models the FE-BE leg of split TCP: the connection is established
    once (optionally warmed with an initial request) and its congestion
    window carries over between requests, eliminating slow-start ramp-up
    for every user query — the paper's "second key aspect".
    """

    def __init__(self, tcp_host: TcpHost, remote: Endpoint,
                 config: Optional[TcpConfig] = None,
                 controller: Optional[CongestionController] = None):
        self.remote = remote
        self.parser = ResponseParser()
        self._queue: List[_PendingRequest] = []
        self._inflight: Optional[_PendingRequest] = None
        self._established = False
        self.requests_completed = 0
        self.conn: Connection = tcp_host.connect(remote, self, config=config,
                                                 controller=controller)

    # ------------------------------------------------------------------
    @property
    def established(self) -> bool:
        return self._established

    @property
    def busy(self) -> bool:
        return self._inflight is not None

    @property
    def queue_depth(self) -> int:
        return len(self._queue) + (1 if self._inflight else 0)

    def request(self, request: HttpRequest,
                hooks: Optional[RequestHooks] = None) -> None:
        """Enqueue a request; it is sent when the connection is free."""
        self._queue.append(_PendingRequest(request, hooks or RequestHooks()))
        self._pump()

    def _pump(self) -> None:
        if (not self._established or self._inflight is not None
                or not self._queue):
            return
        pending = self._queue.pop(0)
        pending.issued_at = self.conn.sim.now
        self._inflight = pending
        self.conn.send(pending.request.encode())

    # TcpApp interface -------------------------------------------------
    def on_established(self, conn: Connection) -> None:
        self._established = True
        self._pump()

    def on_data(self, conn: Connection, data: bytes) -> None:
        try:
            events = self.parser.feed(data)
        except HttpError as exc:
            self._fail("malformed response: %s" % exc)
            conn.abort("malformed response")
            return
        for kind, payload in events:
            if self._inflight is None:
                continue  # stray data after failure
            if kind == "head":
                self._inflight.hooks.head(payload)
            elif kind == "body":
                self._inflight.hooks.body(payload)
            elif kind == "end":
                done = self._inflight
                self._inflight = None
                self.requests_completed += 1
                done.hooks.complete(payload)
                self._pump()

    def on_close(self, conn: Connection) -> None:
        self._fail("peer closed persistent connection")

    def on_error(self, conn: Connection, message: str) -> None:
        self._fail(message)

    def _fail(self, message: str) -> None:
        self._established = False
        failed, self._inflight = self._inflight, None
        if failed is not None:
            failed.hooks.failure(message)
        for pending in self._queue:
            pending.hooks.failure(message)
        self._queue.clear()
