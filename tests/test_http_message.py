"""Unit tests for HTTP message framing and incremental parsers."""

import pytest

from repro.http.message import (
    HttpError,
    HttpRequest,
    HttpResponse,
    RequestParser,
    ResponseParser,
    _url_quote,
    _url_unquote,
    build_query_path,
    encode_chunk,
    encode_last_chunk,
)


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------
def test_request_encode_roundtrip():
    request = HttpRequest(method="GET", path="/search?q=abc",
                          headers={"Host": "bing.example"})
    wire = request.encode()
    assert wire.startswith(b"GET /search?q=abc HTTP/1.1\r\n")
    assert b"Host: bing.example\r\n" in wire
    assert wire.endswith(b"\r\n\r\n")


def test_request_with_body_gets_content_length():
    request = HttpRequest(method="POST", path="/", body=b"hello")
    wire = request.encode()
    assert b"Content-Length: 5" in wire
    assert wire.endswith(b"hello")


def test_header_injection_rejected():
    request = HttpRequest(headers={"X-Bad": "v\r\nInjected: yes"})
    with pytest.raises(HttpError):
        request.encode()


def test_chunk_encoding():
    assert encode_chunk(b"abc") == b"3\r\nabc\r\n"
    assert encode_chunk(b"") == b"0\r\n\r\n"
    assert encode_last_chunk() == b"0\r\n\r\n"


def test_build_query_path_escaping():
    path = build_query_path("/search", {"q": "computer science dept"})
    assert path == "/search?q=computer+science+dept"
    assert build_query_path("/x", {}) == "/x"
    path = build_query_path("/s", {"q": "a&b=c"})
    assert "&b=c" not in path.split("?")[1].replace("%26b%3Dc", "")


def test_query_parse_roundtrip():
    path = build_query_path("/search", {"q": "mobile cloud computing",
                                        "page": "2"})
    request = HttpRequest(path=path)
    assert request.query == {"q": "mobile cloud computing", "page": "2"}


def test_query_empty_when_no_querystring():
    assert HttpRequest(path="/plain").query == {}


@pytest.mark.parametrize("text", [
    "", "plain", "mobile cloud computing", "a+b&c=d?e/f%g#h", "~-_.",
    "caf\u00e9", "\u65e5\u672c\u8a9e", "%4", "%+1", "\t\r\n"])
def test_url_codec_round_trip(text):
    assert _url_unquote(_url_quote(text)) == text
    path = build_query_path("/search", {"q": text, "id": "q-1"})
    assert HttpRequest(path=path).query == {"q": text, "id": "q-1"}


def test_url_quote_escapes_all_but_unreserved():
    assert _url_quote("a b&c~d") == "a+b%26c~d"
    assert _url_quote("caf\u00e9") == "caf%C3%A9"


def test_url_unquote_leaves_malformed_escapes_literal():
    # A "%" needs two hex digits after it; "+" decodes to a space first.
    assert _url_unquote("%4") == "%4"
    assert _url_unquote("%+1") == "% 1"
    assert _url_unquote("% 1") == "% 1"
    assert _url_unquote("%zz%") == "%zz%"
    assert _url_unquote("%41%2b") == "A+"
    # A lone byte that is not UTF-8 decodes to the replacement character.
    assert _url_unquote("%E9") == "\ufffd"


# ---------------------------------------------------------------------------
# request parser
# ---------------------------------------------------------------------------
def test_request_parser_single_message():
    parser = RequestParser()
    wire = HttpRequest(path="/a", headers={"Host": "h"}).encode()
    (request,) = parser.feed(wire)
    assert request.path == "/a"
    assert request.headers["Host"] == "h"


def test_request_parser_byte_at_a_time():
    parser = RequestParser()
    wire = HttpRequest(method="POST", path="/b", body=b"xyz").encode()
    out = []
    for i in range(len(wire)):
        out.extend(parser.feed(wire[i:i + 1]))
    assert len(out) == 1
    assert out[0].body == b"xyz"


def test_request_parser_pipelined_messages():
    parser = RequestParser()
    wire = (HttpRequest(path="/1").encode()
            + HttpRequest(path="/2").encode()
            + HttpRequest(path="/3").encode())
    requests = parser.feed(wire)
    assert [r.path for r in requests] == ["/1", "/2", "/3"]


def test_request_parser_malformed_line_raises():
    parser = RequestParser()
    with pytest.raises(HttpError):
        parser.feed(b"NONSENSE\r\n\r\n")


# ---------------------------------------------------------------------------
# response parser
# ---------------------------------------------------------------------------
def encode_response(response):
    """A whole response framed by Content-Length."""
    headers = dict(response.headers)
    headers.setdefault("Content-Length", str(len(response.body)))
    return HttpResponse(response.status, headers, b"",
                        response.version).encode_head() + response.body


def chunked_response_wire(chunks, status=200, headers=None):
    response = HttpResponse(status=status,
                            headers=dict(headers or {},
                                         **{"Transfer-Encoding": "chunked"}))
    wire = response.encode_head()
    for chunk in chunks:
        wire += encode_chunk(chunk)
    wire += encode_last_chunk()
    return wire


def test_response_parser_content_length():
    parser = ResponseParser()
    wire = encode_response(HttpResponse(status=200, body=b"hello world"))
    events = parser.feed(wire)
    kinds = [k for k, _ in events]
    assert kinds == ["head", "body", "end"]
    assert events[-1][1].body == b"hello world"


def test_response_parser_chunked_stream_events():
    parser = ResponseParser()
    wire = chunked_response_wire([b"static-part", b"dynamic-part"])
    events = parser.feed(wire)
    bodies = [p for k, p in events if k == "body"]
    assert bodies == [b"static-part", b"dynamic-part"]
    assert events[-1][0] == "end"
    assert events[-1][1].body == b"static-partdynamic-part"


def test_response_parser_fragmented_arbitrarily():
    wire = chunked_response_wire([b"a" * 100, b"b" * 50, b"c" * 7])
    for step in (1, 3, 7, 11):
        parser = ResponseParser()
        collected = bytearray()
        ends = []
        for i in range(0, len(wire), step):
            for kind, payload in parser.feed(wire[i:i + step]):
                if kind == "body":
                    collected.extend(payload)
                elif kind == "end":
                    ends.append(payload)
        assert bytes(collected) == b"a" * 100 + b"b" * 50 + b"c" * 7
        assert len(ends) == 1


def test_response_parser_sequential_responses():
    parser = ResponseParser()
    wire = (encode_response(HttpResponse(body=b"first"))
            + chunked_response_wire([b"sec", b"ond"]))
    events = parser.feed(wire)
    ends = [p for k, p in events if k == "end"]
    assert [e.body for e in ends] == [b"first", b"second"]


def test_response_parser_zero_length_body():
    parser = ResponseParser()
    events = parser.feed(encode_response(HttpResponse(status=204)))
    assert [k for k, _ in events] == ["head", "end"]
    assert events[-1][1].body == b""


def test_response_parser_bad_chunk_size():
    parser = ResponseParser()
    head = HttpResponse(headers={"Transfer-Encoding": "chunked"}).encode_head()
    with pytest.raises(HttpError):
        parser.feed(head + b"zz\r\n")


def test_response_parser_missing_chunk_crlf():
    parser = ResponseParser()
    head = HttpResponse(headers={"Transfer-Encoding": "chunked"}).encode_head()
    with pytest.raises(HttpError):
        parser.feed(head + b"3\r\nabcXX")
