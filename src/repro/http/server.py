"""HTTP server on top of the simulated TCP stack.

Applications register a *handler* called as ``handler(request, responder)``
for every parsed request.  The :class:`Responder` supports the streaming
pattern at the heart of the paper: a front-end server calls
:meth:`Responder.send_head` + :meth:`Responder.send_body` with the cached
static portion immediately, then appends the dynamic portion whenever the
back-end delivers it, then :meth:`Responder.finish`.

Responses default to chunked transfer encoding (what the 2011 search
services used); a fixed Content-Length mode is available too.  Persistent
connections are supported; requests on one connection are served strictly
in order.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.http.message import (
    HttpError,
    HttpRequest,
    HttpResponse,
    RequestParser,
    encode_chunk,
    encode_last_chunk,
)
from repro.tcp.connection import Connection, TcpApp
from repro.tcp.host import TcpHost

Handler = Callable[[HttpRequest, "Responder"], None]


class Responder:
    """Streams one HTTP response onto a connection.

    Created by the server machinery; handed to the application handler.
    The handler must eventually call either :meth:`respond` (one-shot) or
    the :meth:`send_head` / :meth:`send_body` / :meth:`finish` sequence.
    """

    def __init__(self, server_conn: "_ServerConnection",
                 request: HttpRequest):
        self.request = request
        self._server_conn = server_conn
        self._head_sent = False
        self._finished = False
        self._chunked = True

    @property
    def finished(self) -> bool:
        return self._finished

    def send_head(self, status: int = 200,
                  headers: Optional[Dict[str, str]] = None,
                  content_length: Optional[int] = None) -> None:
        """Send the status line and headers.

        With ``content_length`` the body is sent raw and must total
        exactly that many bytes; otherwise chunked encoding is used.
        """
        if self._head_sent:
            raise HttpError("response head already sent")
        self._head_sent = True
        response = HttpResponse(status=status, headers=dict(headers or {}))
        if content_length is not None:
            self._chunked = False
            response.headers.setdefault("Content-Length",
                                        str(content_length))
        else:
            response.headers.setdefault("Transfer-Encoding", "chunked")
        self._server_conn.write(response.encode_head())

    def send_body(self, data: bytes) -> None:
        """Send a piece of the response body."""
        if not self._head_sent:
            raise HttpError("send_head must precede send_body")
        if self._finished:
            raise HttpError("response already finished")
        if not data:
            return
        if self._chunked:
            self._server_conn.write(encode_chunk(data))
        else:
            self._server_conn.write(data)

    def finish(self) -> None:
        """Complete the response; the connection may serve the next request."""
        if not self._head_sent:
            raise HttpError("finish before send_head")
        if self._finished:
            return
        self._finished = True
        if self._chunked:
            self._server_conn.write(encode_last_chunk())
        self._server_conn.response_done(self)

    def fail(self) -> None:
        """End a started response without its last chunk: close the
        connection, so the client sees the response fail."""
        self._finished = True
        self._server_conn.conn.close()

    def respond(self, response: HttpResponse) -> None:
        """One-shot convenience: full response with Content-Length."""
        self.send_head(response.status, response.headers,
                       content_length=len(response.body))
        if response.body:
            self.send_body(response.body)
        self.finish()


class _ServerConnection(TcpApp):
    """Per-connection server state: request parsing and ordering."""

    def __init__(self, server: "HttpServer"):
        self.server = server
        self.parser = RequestParser()
        self.conn: Optional[Connection] = None
        self._queue: List[HttpRequest] = []
        self._active: Optional[Responder] = None
        self._closing = False

    # TcpApp interface -------------------------------------------------
    def on_established(self, conn: Connection) -> None:
        self.conn = conn
        self.server.connections_accepted += 1

    def on_data(self, conn: Connection, data: bytes) -> None:
        try:
            requests = self.parser.feed(data)
        except HttpError:
            self.server.protocol_errors += 1
            conn.abort("malformed request")
            return
        for request in requests:
            self._queue.append(request)
        self._serve_next()

    def on_close(self, conn: Connection) -> None:
        self._closing = True
        if self._active is None and not self._queue:
            conn.close()

    def on_error(self, conn: Connection, message: str) -> None:
        pass

    # response sequencing ----------------------------------------------
    def _serve_next(self) -> None:
        if self._active is not None or not self._queue:
            return
        request = self._queue.pop(0)
        responder = Responder(self, request)
        self._active = responder
        self.server.requests_served += 1
        self.server.handler(request, responder)

    def response_done(self, responder: Responder) -> None:
        if responder is not self._active:
            raise HttpError("out-of-order response completion")
        self._active = None
        if self._queue:
            self._serve_next()
        elif self._closing and self.conn is not None:
            self.conn.close()

    def write(self, data: bytes) -> None:
        if self.conn is None:
            raise HttpError("connection not established")
        self.conn.send(data)


class HttpServer:
    """Binds a handler to a port on a host's TCP stack."""

    def __init__(self, tcp_host: TcpHost, port: int, handler: Handler):
        self.handler = handler
        self.port = port
        self.requests_served = 0
        self.connections_accepted = 0
        self.protocol_errors = 0
        tcp_host.listen(port, lambda: _ServerConnection(self))
