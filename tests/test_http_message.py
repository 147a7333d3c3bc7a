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
    with pytest.raises(HttpError):
        RequestParser().feed(b"GET / HTTP/1.1\r\nContent-Length: -1\r\n\r\n")
    with pytest.raises(HttpError, match="header block too large"):
        RequestParser().feed(b"G" * (64 * 1024 + 1))


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
    # Nothing completes until the last body byte arrives.
    assert parser.feed(wire[:-1]) == []
    (response,) = parser.feed(wire[-1:])
    assert response.status == 200
    assert response.headers["Content-Length"] == "11"
    assert response.body == b"hello world"


def test_response_parser_chunked_stream_events():
    parser = ResponseParser()
    head = HttpResponse(headers={"Transfer-Encoding": "chunked"}
                        ).encode_head()
    # Chunks arriving apart (the static part, then the dynamic part)
    # complete one response, when the last chunk arrives.
    assert parser.feed(head + encode_chunk(b"static-part")) == []
    assert parser.feed(encode_chunk(b"dynamic-part")) == []
    (response,) = parser.feed(encode_last_chunk())
    assert response.headers["Transfer-Encoding"] == "chunked"
    assert response.body == b"static-partdynamic-part"


def test_response_parser_fragmented_arbitrarily():
    body = b"a" * 100 + b"b" * 50 + b"c" * 7
    wire = (chunked_response_wire([b"a" * 100, b"b" * 50, b"c" * 7])
            + encode_response(HttpResponse(status=404, body=body)))
    for step in (1, 3, 7, 11):
        parser = ResponseParser()
        responses = []
        for i in range(0, len(wire), step):
            responses.extend(parser.feed(wire[i:i + step]))
        assert [(r.status, r.body) for r in responses] == [(200, body),
                                                           (404, body)]


def test_response_parser_sequential_responses():
    parser = ResponseParser()
    wire = (encode_response(HttpResponse(body=b"first"))
            + chunked_response_wire([b"sec", b"ond"]))
    responses = parser.feed(wire)
    assert [r.body for r in responses] == [b"first", b"second"]


def test_response_parser_zero_length_body():
    parser = ResponseParser()
    wire = encode_response(HttpResponse(status=204))
    (response,) = parser.feed(wire)
    assert response.status == 204
    assert response.body == b""
    # The next response on the connection parses from a clean state.
    (response,) = parser.feed(encode_response(HttpResponse(body=b"x")))
    assert response.body == b"x"


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


def test_response_parser_rejects_trailer_and_negative_sizes():
    head = HttpResponse(headers={"Transfer-Encoding": "chunked"}).encode_head()
    for wire in (head + b"0\r\nX-Trailer: 1\r\n\r\n",
                 head + b"-5\r\nabc\r\n",
                 encode_response(HttpResponse()).replace(
                     b"Content-Length: 0", b"Content-Length: -2")):
        with pytest.raises(HttpError):
            ResponseParser().feed(wire)
    with pytest.raises(HttpError, match="header block too large"):
        ResponseParser().feed(b"H" * (64 * 1024 + 1))
