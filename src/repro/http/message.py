"""HTTP/1.1 message framing.

The services measured by the paper spoke HTTP/1.1 with chunked transfer
encoding for dynamically generated bodies — the natural encoding when a
front-end server wants to flush a cached static prefix immediately and
append back-end content whenever it arrives.  This module implements:

* :class:`HttpRequest` / :class:`HttpResponse` value objects;
* wire encoding (request line / status line, headers, chunked framing);
* incremental parsers that accept arbitrary byte-stream fragmentation,
  because the TCP layer delivers whatever segment boundaries occurred,
  and return whole messages.

Only what the reproduction needs is implemented: GET requests,
Content-Length and chunked bodies, and persistent connections.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional
from urllib.parse import quote_plus, unquote_plus

CRLF = b"\r\n"

#: Reason phrases for status codes used by the simulated services.
REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """Raised on malformed HTTP wire data."""


def _encode_headers(headers: Dict[str, str]) -> bytes:
    lines = []
    for name, value in headers.items():
        if "\r" in name or "\n" in name or "\r" in str(value) or "\n" in str(value):
            raise HttpError("header injection attempt: %r" % name)
        lines.append(("%s: %s" % (name, value)).encode("latin-1"))
    return CRLF.join(lines)


def _parse_headers(block: bytes) -> Dict[str, str]:
    headers: Dict[str, str] = {}
    for line in block.split(CRLF):
        if not line:
            continue
        if b":" not in line:
            raise HttpError("malformed header line %r" % line)
        name, _, value = line.partition(b":")
        headers[name.decode("latin-1").strip()] = \
            value.decode("latin-1").strip()
    return headers


@dataclass
class HttpRequest:
    """An HTTP request."""

    method: str = "GET"
    path: str = "/"
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    version: str = "HTTP/1.1"

    def encode(self) -> bytes:
        headers = dict(self.headers)
        if self.body:
            headers.setdefault("Content-Length", str(len(self.body)))
        head = "%s %s %s" % (self.method, self.path, self.version)
        parts = [head.encode("latin-1")]
        encoded_headers = _encode_headers(headers)
        if encoded_headers:
            parts.append(encoded_headers)
        return CRLF.join(parts) + CRLF + CRLF + self.body

    @property
    def query(self) -> Dict[str, str]:
        """Parsed query-string parameters of :attr:`path`."""
        if "?" not in self.path:
            return {}
        out = {}
        for pair in self.path.split("?", 1)[1].split("&"):
            if not pair:
                continue
            key, _, value = pair.partition("=")
            out[_url_unquote(key)] = _url_unquote(value)
        return out


@dataclass
class HttpResponse:
    """A fully reassembled HTTP response."""

    status: int = 200
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    version: str = "HTTP/1.1"

    def encode_head(self) -> bytes:
        reason = REASONS.get(self.status, "Unknown")
        head = "%s %d %s" % (self.version, self.status, reason)
        parts = [head.encode("latin-1")]
        encoded_headers = _encode_headers(self.headers)
        if encoded_headers:
            parts.append(encoded_headers)
        return CRLF.join(parts) + CRLF + CRLF


def encode_chunk(data: bytes) -> bytes:
    """Encode one chunk in chunked transfer encoding."""
    return b"%x\r\n%s\r\n" % (len(data), data)


def encode_last_chunk() -> bytes:
    """The zero-length terminating chunk."""
    return b"0\r\n\r\n"


def _url_quote(text: str) -> str:
    """Form-encode ``text``: unreserved characters stay, a space becomes
    ``+``, every other UTF-8 byte becomes ``%XX``."""
    return quote_plus(text, safe="")


def _url_unquote(text: str) -> str:
    """Invert :func:`_url_quote`.  A ``%`` not followed by two hex
    digits stays literal; undecodable bytes become U+FFFD."""
    return unquote_plus(text, errors="replace")


def build_query_path(base: str, params: Dict[str, str]) -> str:
    """Build ``/search?q=...`` style paths with proper escaping."""
    if not params:
        return base
    encoded = "&".join("%s=%s" % (_url_quote(k), _url_quote(v))
                       for k, v in params.items())
    return "%s?%s" % (base, encoded)


# ---------------------------------------------------------------------------
# incremental parsers
# ---------------------------------------------------------------------------
#: Largest header block either parser accepts.
MAX_HEAD = 64 * 1024


class RequestParser:
    """Incremental parser for a stream of requests on one connection.

    Bytes of a request that has not fully arrived are held over and
    parsed again with the next feed; requests are small (a GET fits one
    segment), so this costs nothing on the simulated paths.
    """

    def __init__(self):
        self._partial = b""
        self._pending: Optional[HttpRequest] = None
        self._body_remaining = 0

    def feed(self, data: bytes) -> List[HttpRequest]:
        """Consume bytes; return any fully parsed requests."""
        complete: List[HttpRequest] = []
        data = self._partial + data
        pos = 0
        size = len(data)
        while True:
            if self._pending is None:
                end = data.find(CRLF + CRLF, pos)
                if end < 0:
                    if size - pos > MAX_HEAD:
                        raise HttpError("header block too large")
                    break
                self._start_request(data[pos:end])
                pos = end + 4
            if size - pos < self._body_remaining:
                break
            self._pending.body = data[pos:pos + self._body_remaining]
            pos += self._body_remaining
            complete.append(self._pending)
            self._pending = None
        self._partial = data[pos:]
        return complete

    def _start_request(self, head: bytes) -> None:
        lines = head.split(CRLF, 1)
        request_line = lines[0].decode("latin-1")
        fields = request_line.split(" ")
        if len(fields) != 3:
            raise HttpError("malformed request line %r" % request_line)
        method, path, version = fields
        headers = _parse_headers(lines[1]) if len(lines) > 1 else {}
        self._pending = HttpRequest(method=method, path=path,
                                    headers=headers, version=version)
        self._body_remaining = int(headers.get("Content-Length", "0"))
        if self._body_remaining < 0:
            raise HttpError("bad Content-Length %r"
                            % headers["Content-Length"])


class ResponseParser:
    """Incremental parser for a stream of responses on one connection.

    :meth:`feed` returns the responses its bytes complete, in order, each
    with its whole body.  The client runs it on every segment's payload,
    so body bytes inside a Content-Length body or a chunk are kept as
    the pieces they arrived in and joined once, when the response ends;
    only framing (the head, chunk-size lines, CRLFs) cut by a segment
    boundary is held over for the next feed.
    """

    _HEAD, _SPAN, _CHUNK_SIZE, _CHUNK_END, _TRAILER = range(5)

    def __init__(self):
        self._state = self._HEAD
        self._partial = b""     # framing bytes awaiting the rest
        self._response: Optional[HttpResponse] = None
        self._chunked = False
        self._parts: List[bytes] = []
        self._remaining = 0     # bytes left in the current body span

    def feed(self, data: bytes) -> List[HttpResponse]:
        """Consume bytes; return the responses they complete, in order."""
        complete: List[HttpResponse] = []
        if self._partial:
            data = self._partial + data
            self._partial = b""
        pos = 0
        size = len(data)
        while True:
            state = self._state
            if state == self._SPAN:
                if pos == size:
                    break
                end = pos + self._remaining
                if end > size:
                    end = size
                self._parts.append(data if pos == 0 and end == size
                                   else data[pos:end])
                self._remaining -= end - pos
                pos = end
                if self._remaining:
                    break
                if self._chunked:
                    self._state = self._CHUNK_END
                else:
                    complete.append(self._finish())
            elif state == self._HEAD:
                end = data.find(CRLF + CRLF, pos)
                if end < 0:
                    if size - pos > MAX_HEAD:
                        raise HttpError("header block too large")
                    break
                self._start_response(data[pos:end])
                pos = end + 4
                if not self._chunked and not self._remaining:
                    complete.append(self._finish())
            elif state == self._CHUNK_SIZE:
                end = data.find(CRLF, pos)
                if end < 0:
                    break
                line = data[pos:end].split(b";")[0].strip()
                pos = end + 2
                try:
                    self._remaining = int(line, 16)
                except ValueError:
                    raise HttpError("bad chunk size %r" % line)
                if self._remaining < 0:
                    raise HttpError("bad chunk size %r" % line)
                self._state = (self._SPAN if self._remaining
                               else self._TRAILER)
            else:
                # After a chunk's payload, and after the last chunk (no
                # trailer support): a CRLF.
                if size - pos < 2:
                    break
                if data[pos:pos + 2] != CRLF:
                    raise HttpError("missing CRLF after chunk"
                                    if state == self._CHUNK_END
                                    else "unsupported chunked trailer")
                pos += 2
                if state == self._CHUNK_END:
                    self._state = self._CHUNK_SIZE
                else:
                    complete.append(self._finish())
        if pos < size:
            self._partial = data[pos:]
        return complete

    # ------------------------------------------------------------------
    def _start_response(self, head: bytes) -> None:
        lines = head.split(CRLF, 1)
        status_line = lines[0].decode("latin-1")
        fields = status_line.split(" ", 2)
        if len(fields) < 2:
            raise HttpError("malformed status line %r" % status_line)
        version, status = fields[0], int(fields[1])
        headers = _parse_headers(lines[1]) if len(lines) > 1 else {}
        self._response = HttpResponse(status=status, headers=headers,
                                      version=version)
        self._chunked = (headers.get("Transfer-Encoding", "").lower()
                         == "chunked")
        if self._chunked:
            self._state = self._CHUNK_SIZE
        else:
            self._remaining = int(headers.get("Content-Length", "0"))
            if self._remaining < 0:
                raise HttpError("bad Content-Length %r"
                                % headers["Content-Length"])
            self._state = self._SPAN

    def _finish(self) -> HttpResponse:
        response = self._response
        response.body = b"".join(self._parts)
        self._response = None
        self._parts = []
        self._state = self._HEAD
        return response
