"""Unit tests for TCP send/receive buffers."""

import pytest

from repro.tcp.buffers import Reassembler, SendBuffer


# ---------------------------------------------------------------------------
# SendBuffer
# ---------------------------------------------------------------------------
def test_send_buffer_enqueue_and_peek():
    buf = SendBuffer()
    buf.enqueue(b"hello ")
    buf.enqueue(b"world")
    assert buf.length == 11
    assert buf.peek(0, 5) == b"hello"
    assert buf.peek(6, 5) == b"world"
    assert buf.peek(3, 6) == b"lo wor"
    assert buf.peek(11, 10) == b""


def test_send_buffer_tracking():
    # The connection advances nxt as it sends: length - nxt bytes are
    # unsent, nxt - una unacknowledged.
    buf = SendBuffer()
    buf.enqueue(b"x" * 100)
    assert (buf.length, buf.nxt, buf.una) == (100, 0, 0)
    buf.nxt = 60
    assert buf.ack_to(30) == 30
    assert (buf.nxt, buf.una) == (60, 30)
    assert buf.ack_to(30) == 0  # duplicate ack
    assert buf.una == 30
    buf.nxt = 100
    assert buf.ack_to(100) == 70
    assert buf.length == buf.nxt == buf.una == 100


def test_send_buffer_releases_acked_memory():
    buf = SendBuffer()
    for _ in range(10):
        buf.enqueue(b"a" * 1000)
    buf.nxt = 10000
    buf.ack_to(5000)
    with pytest.raises(ValueError):
        buf.peek(0, 10)  # released
    assert buf.peek(5000, 4) == b"aaaa"


def test_send_buffer_invalid_operations():
    buf = SendBuffer()
    buf.enqueue(b"abc")
    buf.nxt = 3
    with pytest.raises(ValueError):
        buf.ack_to(5)  # beyond what was sent
    buf.mark_fin()
    with pytest.raises(RuntimeError):
        buf.enqueue(b"more")


def test_send_buffer_empty_enqueue_is_noop():
    buf = SendBuffer()
    buf.enqueue(b"")
    assert buf.length == 0
    assert buf.peek_view(0, 10) == b""


# ---------------------------------------------------------------------------
# Reassembler
# ---------------------------------------------------------------------------
def test_reassembler_in_order():
    r = Reassembler()
    assert r.offer(0, b"abc") == b"abc"
    assert r.offer(3, b"def") == b"def"
    assert r.next_expected == 6


def test_reassembler_out_of_order():
    r = Reassembler()
    assert r.offer(3, b"def") == b""
    assert r.next_expected == 0
    assert r.offer(0, b"abc") == b"abcdef"
    assert r.next_expected == 6


def test_reassembler_duplicate_ignored():
    r = Reassembler()
    r.offer(0, b"abc")
    assert r.offer(0, b"abc") == b""
    assert r.next_expected == 3


def test_reassembler_overlapping_segments():
    r = Reassembler()
    assert r.offer(2, b"cdef") == b""
    assert r.offer(0, b"abcd") == b"abcdef"


def test_reassembler_partial_stale_prefix():
    r = Reassembler()
    r.offer(0, b"abcd")
    # Retransmission covering old + new data.
    assert r.offer(2, b"cdEF") == b"EF"
    assert r.next_expected == 6


def test_reassembler_empty_offer():
    r = Reassembler()
    assert r.offer(0, b"") == b""
    assert r.next_expected == 0
