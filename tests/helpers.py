"""Reusable application stubs for transport-layer tests."""

from __future__ import annotations

from typing import List, Optional

from repro.tcp.connection import Connection, TcpApp


class CollectorApp(TcpApp):
    """Client-side app that records everything that happens."""

    def __init__(self, request: bytes = b"", close_after_send: bool = False):
        self.request = request
        self.close_after_send = close_after_send
        self.received = bytearray()
        self.established_at: Optional[float] = None
        self.closed_at: Optional[float] = None
        self.errors: List[str] = []
        self.data_times: List[float] = []

    def on_established(self, conn: Connection) -> None:
        self.established_at = conn.sim.now
        if self.request:
            conn.send(self.request)
            if self.close_after_send:
                conn.close()

    def on_data(self, conn: Connection, data: bytes) -> None:
        self.received.extend(data)
        self.data_times.append(conn.sim.now)

    def on_close(self, conn: Connection) -> None:
        self.closed_at = conn.sim.now

    def on_error(self, conn: Connection, message: str) -> None:
        self.errors.append(message)


class EchoServerApp(TcpApp):
    """Echoes every received byte back to the sender."""

    def on_data(self, conn: Connection, data: bytes) -> None:
        conn.send(data)

    def on_close(self, conn: Connection) -> None:
        conn.close()


class RespondApp(TcpApp):
    """Sends a fixed response once ``trigger_bytes`` have arrived.

    Optionally closes the connection after responding, and can delay the
    response through the simulator to model server think time.
    """

    def __init__(self, response: bytes, trigger_bytes: int = 1,
                 close_after: bool = False, delay: float = 0.0):
        self.response = response
        self.trigger_bytes = trigger_bytes
        self.close_after = close_after
        self.delay = delay
        self.received = bytearray()
        self.responded = False

    def on_data(self, conn: Connection, data: bytes) -> None:
        self.received.extend(data)
        if not self.responded and len(self.received) >= self.trigger_bytes:
            self.responded = True
            if self.delay > 0:
                conn.sim.schedule(self.delay, self._respond, conn)
            else:
                self._respond(conn)

    def _respond(self, conn: Connection) -> None:
        conn.send(self.response)
        if self.close_after:
            conn.close()


class SinkApp(TcpApp):
    """Accepts and counts bytes, nothing else."""

    def __init__(self):
        self.byte_count = 0
        self.closed = False

    def on_data(self, conn: Connection, data: bytes) -> None:
        self.byte_count += len(data)

    def on_close(self, conn: Connection) -> None:
        self.closed = True


def make_payload(size: int, tag: bytes = b"") -> bytes:
    """Deterministic, position-dependent payload for integrity checks."""
    pattern = bytearray()
    counter = 0
    while len(pattern) < size:
        pattern.extend(b"%s%08d|" % (tag, counter))
        counter += 1
    return bytes(pattern[:size])
