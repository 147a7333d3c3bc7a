"""HTTP/1.1 message framing.

The services measured by the paper spoke HTTP/1.1 with chunked transfer
encoding for dynamically generated bodies — the natural encoding when a
front-end server wants to flush a cached static prefix immediately and
append back-end content whenever it arrives.  This module implements:

* :class:`HttpRequest` / :class:`HttpResponse` value objects;
* wire encoding (request line / status line, headers, chunked framing);
* incremental parsers that accept arbitrary byte-stream fragmentation,
  because the TCP layer delivers whatever segment boundaries occurred.

Only what the reproduction needs is implemented: GET requests,
Content-Length and chunked bodies, and persistent connections.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple
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
class _HeadParser:
    """Shared machinery: accumulate bytes until the blank line."""

    MAX_HEAD = 64 * 1024

    def __init__(self):
        self._buffer = bytearray()

    def feed_until_head(self, data: bytes) -> Optional[Tuple[bytes, bytes]]:
        """Add data; return (head_block, remainder) once complete."""
        self._buffer.extend(data)
        index = self._buffer.find(CRLF + CRLF)
        if index < 0:
            if len(self._buffer) > self.MAX_HEAD:
                raise HttpError("header block too large")
            return None
        head = bytes(self._buffer[:index])
        remainder = bytes(self._buffer[index + 4:])
        self._buffer.clear()
        return head, remainder


class RequestParser:
    """Incremental parser for a stream of requests on one connection."""

    def __init__(self):
        self._head = _HeadParser()
        self._pending: Optional[HttpRequest] = None
        self._body_remaining = 0
        self._body = bytearray()
        self._leftover = b""

    def feed(self, data: bytes) -> List[HttpRequest]:
        """Consume bytes; return any fully parsed requests."""
        complete: List[HttpRequest] = []
        data = self._leftover + data
        self._leftover = b""
        while data or self._ready_to_finish():
            if self._pending is None:
                result = self._head.feed_until_head(data)
                if result is None:
                    return complete
                head, data = result
                self._start_request(head)
            if self._body_remaining > 0:
                take = data[:self._body_remaining]
                self._body.extend(take)
                self._body_remaining -= len(take)
                data = data[len(take):]
            if self._body_remaining == 0 and self._pending is not None:
                self._pending.body = bytes(self._body)
                complete.append(self._pending)
                self._pending = None
                self._body.clear()
            elif not data:
                break
        self._leftover = data
        return complete

    def _ready_to_finish(self) -> bool:
        return self._pending is not None and self._body_remaining == 0

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


class ResponseParser:
    """Incremental parser for a stream of responses on one connection.

    Emits *events* rather than only complete messages, because the
    measurement layer needs to observe body bytes as they arrive (the
    static prefix of a search response arrives long before the dynamic
    part).  Events are ``("head", HttpResponse)``, ``("body", bytes)`` and
    ``("end", HttpResponse)`` — the response object in "end" carries the
    full body.
    """

    _IDLE, _BODY_LENGTH, _CHUNK_SIZE, _CHUNK_DATA, _CHUNK_TRAILER = range(5)

    def __init__(self):
        self._head = _HeadParser()
        self._state = self._IDLE
        self._response: Optional[HttpResponse] = None
        self._body = bytearray()
        self._remaining = 0
        self._buffer = bytearray()

    def feed(self, data: bytes) -> List[Tuple[str, object]]:
        """Consume bytes and return parse events in order."""
        events: List[Tuple[str, object]] = []
        self._buffer.extend(data)
        progress = True
        while progress:
            progress = False
            if self._state == self._IDLE:
                result = self._head.feed_until_head(bytes(self._buffer))
                self._buffer.clear()
                if result is None:
                    break
                head, remainder = result
                self._buffer.extend(remainder)
                self._start_response(head)
                events.append(("head", self._response))
                progress = True
            elif self._state == self._BODY_LENGTH:
                progress = self._feed_length_body(events)
            elif self._state == self._CHUNK_SIZE:
                progress = self._feed_chunk_size()
            elif self._state == self._CHUNK_DATA:
                progress = self._feed_chunk_data(events)
            elif self._state == self._CHUNK_TRAILER:
                progress = self._feed_chunk_trailer(events)
        return events

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
        self._body = bytearray()
        if headers.get("Transfer-Encoding", "").lower() == "chunked":
            self._state = self._CHUNK_SIZE
        else:
            self._remaining = int(headers.get("Content-Length", "0"))
            self._state = self._BODY_LENGTH

    def _feed_length_body(self, events) -> bool:
        if self._remaining == 0:
            self._finish(events)
            return True
        if not self._buffer:
            return False
        take = bytes(self._buffer[:self._remaining])
        del self._buffer[:len(take)]
        self._remaining -= len(take)
        self._body.extend(take)
        events.append(("body", take))
        if self._remaining == 0:
            self._finish(events)
        return True

    def _feed_chunk_size(self) -> bool:
        index = self._buffer.find(CRLF)
        if index < 0:
            return False
        line = bytes(self._buffer[:index]).split(b";")[0].strip()
        del self._buffer[:index + 2]
        try:
            self._remaining = int(line, 16)
        except ValueError:
            raise HttpError("bad chunk size %r" % line)
        self._state = (self._CHUNK_TRAILER if self._remaining == 0
                       else self._CHUNK_DATA)
        return True

    def _feed_chunk_data(self, events) -> bool:
        if not self._buffer:
            return False
        if self._remaining > 0:
            take = bytes(self._buffer[:self._remaining])
            del self._buffer[:len(take)]
            self._remaining -= len(take)
            self._body.extend(take)
            events.append(("body", take))
            if self._remaining > 0:
                return True
        # Expect the CRLF after the chunk payload.
        if len(self._buffer) < 2:
            return False
        if bytes(self._buffer[:2]) != CRLF:
            raise HttpError("missing CRLF after chunk")
        del self._buffer[:2]
        self._state = self._CHUNK_SIZE
        return True

    def _feed_chunk_trailer(self, events) -> bool:
        # No trailer support: expect the final CRLF.
        if len(self._buffer) < 2:
            return False
        if bytes(self._buffer[:2]) != CRLF:
            raise HttpError("unsupported chunked trailer")
        del self._buffer[:2]
        self._finish(events)
        return True

    def _finish(self, events) -> None:
        response = self._response
        response.body = bytes(self._body)
        events.append(("end", response))
        self._response = None
        self._state = self._IDLE
        self._body = bytearray()
