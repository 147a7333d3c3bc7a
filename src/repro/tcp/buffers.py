"""Send and receive buffers.

:class:`SendBuffer` stores the outbound byte stream and tracks the
unacknowledged prefix; :class:`Reassembler` turns possibly out-of-order,
possibly duplicated received segments back into an in-order stream.

Both are pure data structures (no simulator dependency), which makes them
ideal targets for property-based testing: any interleaving of segment
arrivals must reproduce the original stream exactly.
"""

from __future__ import annotations

from typing import Dict, List, Optional


class SendBuffer:
    """Outbound stream buffer with sequence-number bookkeeping.

    Sequence numbers are absolute stream offsets (the connection layer
    adds its ISN).  ``length`` is the number of bytes ever enqueued,
    ``una`` the lowest unacknowledged offset and ``nxt`` the next offset
    to be sent for the first time, so ``nxt - una`` bytes are in flight
    and ``length - nxt`` are unsent.  The connection reads these fields
    directly and advances ``nxt`` as it transmits.
    """

    def __init__(self):
        self._chunks: List[bytes] = []
        self._base = 0          # stream offset of the start of _chunks
        self.length = 0
        self.una = 0
        self.nxt = 0
        self.fin_enqueued = False

    # ------------------------------------------------------------------
    def enqueue(self, data: bytes) -> None:
        """Append application data to the stream."""
        if self.fin_enqueued:
            raise RuntimeError("cannot enqueue after FIN")
        if data:
            self._chunks.append(bytes(data))
            self.length += len(data)

    def mark_fin(self) -> None:
        """Mark end-of-stream; no further enqueues are allowed."""
        self.fin_enqueued = True

    def peek(self, offset: int, size: int) -> bytes:
        """Return up to ``size`` bytes of the stream starting at ``offset``.

        Used both for new transmissions (offset == nxt) and for
        retransmissions (offset < nxt).
        """
        if offset < self._base:
            raise ValueError("offset %d below buffer base %d (already "
                             "released)" % (offset, self._base))
        if size <= 0 or offset >= self.length:
            return b""
        out = []
        remaining = size
        position = self._base
        for chunk in self._chunks:
            chunk_end = position + len(chunk)
            if chunk_end <= offset:
                position = chunk_end
                continue
            start = max(0, offset - position)
            take = chunk[start:start + remaining]
            out.append(take)
            remaining -= len(take)
            offset += len(take)
            position = chunk_end
            if remaining <= 0:
                break
        return b"".join(out)

    def peek_view(self, offset: int, size: int):
        """Zero-copy :meth:`peek`: a memoryview into one stored chunk.

        The transmit path sends MSS-sized slices of chunks the
        application enqueued whole, so the requested range almost always
        lies inside a single chunk; returning a view of it means segment
        payloads cross the simulated wire without being copied at every
        hop.  Ranges that straddle chunks fall back to the copying
        :meth:`peek`.  Views stay valid after :meth:`ack_to` releases the
        chunk (bytes are immutable and the view keeps them alive).
        """
        if offset < self._base:
            raise ValueError("offset %d below buffer base %d (already "
                             "released)" % (offset, self._base))
        if size <= 0 or offset >= self.length:
            return b""
        position = self._base
        for chunk in self._chunks:
            chunk_end = position + len(chunk)
            if chunk_end <= offset:
                position = chunk_end
                continue
            start = offset - position
            if start + size <= len(chunk):
                return memoryview(chunk)[start:start + size]
            break
        return self.peek(offset, size)

    def ack_to(self, offset: int) -> int:
        """Process a cumulative ACK up to stream ``offset``.

        Returns the number of newly acknowledged bytes.  Acked data below
        the new ``una`` is released from memory.
        """
        if offset <= self.una:
            return 0
        if offset > self.nxt:
            raise ValueError("ACK %d beyond nxt %d" % (offset, self.nxt))
        newly = offset - self.una
        self.una = offset
        self._release(offset)
        return newly

    def _release(self, offset: int) -> None:
        while self._chunks and self._base + len(self._chunks[0]) <= offset:
            self._base += len(self._chunks[0])
            self._chunks.pop(0)


class Reassembler:
    """In-order reassembly of received payload bytes.

    Offsets are absolute stream offsets (the connection layer strips the
    peer's ISN).  Duplicate and overlapping segments are tolerated; data
    already delivered is ignored.

    Offered data may be ``bytes`` or a ``memoryview`` (the zero-copy
    segment payloads produced by :meth:`SendBuffer.peek_view`); the
    in-order stream returned by :meth:`offer` is always real ``bytes`` —
    application delivery is the materialization boundary.
    """

    def __init__(self, window_bytes: int = 1 << 20):
        self.window_bytes = window_bytes
        self.next_expected = 0
        self._segments: Dict[int, bytes] = {}

    # ------------------------------------------------------------------

    def offer(self, offset: int, data: bytes) -> bytes:
        """Insert a received segment; return newly in-order bytes.

        The returned bytes start exactly at the previous
        ``next_expected`` offset; an empty result means the segment was a
        duplicate or left a gap.
        """
        if data:
            expected = self.next_expected
            # Fast path: the segment lands exactly in order with nothing
            # buffered behind it — by far the common case on a loss-free
            # path.  Skips the store/drain dict traffic entirely.
            if offset == expected and not self._segments:
                self.next_expected = expected + len(data)
                return data if type(data) is bytes else bytes(data)
            end = offset + len(data)
            if end > expected:
                # Trim any prefix we have already delivered.
                if offset < expected:
                    data = data[expected - offset:]
                    offset = expected
                self._store(offset, data)
        return self._drain()

    def _store(self, offset: int, data: bytes) -> None:
        existing = self._segments.get(offset)
        if existing is None or len(existing) < len(data):
            self._segments[offset] = data

    def _drain(self) -> bytes:
        out = []
        while True:
            chunk = self._pop_covering(self.next_expected)
            if chunk is None:
                break
            out.append(chunk)
            self.next_expected += len(chunk)
        return b"".join(out)

    def _pop_covering(self, offset: int) -> Optional[bytes]:
        """Remove and return buffered data beginning at ``offset``."""
        direct = self._segments.pop(offset, None)
        if direct is not None:
            return direct
        # Handle overlap: a stored segment may begin before `offset` but
        # extend past it.
        for start in sorted(self._segments):
            if start > offset:
                return None
            data = self._segments[start]
            if start + len(data) > offset:
                del self._segments[start]
                return data[offset - start:]
            # Fully stale segment.
            del self._segments[start]
        return None
