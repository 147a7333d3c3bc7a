"""Property-based tests for transport-layer invariants."""

import random

from hypothesis import given, settings, strategies as st

from repro.net.address import Endpoint
from repro.sim import units
from repro.tcp.buffers import Reassembler, SendBuffer

from .conftest import make_world
from .helpers import CollectorApp, RespondApp, make_payload


@given(chunks=st.lists(st.binary(min_size=0, max_size=200), max_size=20))
def test_send_buffer_reconstructs_stream(chunks):
    buf = SendBuffer()
    for chunk in chunks:
        buf.enqueue(chunk)
    stream = b"".join(chunks)
    assert buf.length == len(stream)
    # Peek the whole stream in arbitrary-sized windows.
    out = bytearray()
    offset = 0
    while offset < len(stream):
        piece = buf.peek(offset, 7)
        out.extend(piece)
        offset += len(piece)
    assert bytes(out) == stream


@given(data=st.binary(min_size=1, max_size=2000),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       segment_size=st.integers(min_value=1, max_value=97))
def test_reassembler_handles_any_arrival_order(data, seed, segment_size):
    segments = [(off, data[off:off + segment_size])
                for off in range(0, len(data), segment_size)]
    rng = random.Random(seed)
    # Shuffle, duplicate some segments, and deliver everything.
    sequence = segments + rng.sample(segments, k=min(5, len(segments)))
    rng.shuffle(sequence)
    r = Reassembler(window_bytes=1 << 22)
    out = bytearray()
    for offset, payload in sequence:
        out.extend(r.offer(offset, payload))
    assert bytes(out) == data
    assert r.next_expected == len(data)


@settings(max_examples=12, deadline=None)
@given(size=st.integers(min_value=1, max_value=120_000),
       loss=st.sampled_from([0.0, 0.01, 0.05]),
       seed=st.integers(min_value=0, max_value=1000))
def test_end_to_end_transfer_integrity_under_loss(size, loss, seed):
    """Any transfer must deliver exactly the sent bytes, in order."""
    world = make_world(rtt=units.ms(30), loss_rate=loss, seed=seed)
    payload = make_payload(size, tag=b"P")
    world.server.listen(80, lambda: RespondApp(payload, close_after=True))
    client = CollectorApp(request=b"G")
    world.client.connect(Endpoint("server", 80), client)
    world.run(until=600.0)
    assert bytes(client.received) == payload


@settings(max_examples=10, deadline=None)
@given(size=st.integers(min_value=1, max_value=80_000),
       loss=st.sampled_from([0.0, 0.02]),
       seed=st.integers(min_value=0, max_value=500),
       algorithm=st.sampled_from(["reno", "cubic"]))
def test_transfer_integrity_any_congestion_control(size, loss, seed,
                                                   algorithm):
    """Reliability must hold for every congestion-control algorithm."""
    from repro.tcp.config import TcpConfig

    config = TcpConfig(congestion=algorithm)
    world = make_world(rtt=units.ms(25), loss_rate=loss, seed=seed,
                       client_config=config, server_config=config)
    payload = make_payload(size, tag=b"A")
    world.server.listen(80, lambda: RespondApp(payload, close_after=True))
    client = CollectorApp(request=b"G")
    world.client.connect(Endpoint("server", 80), client)
    world.run(until=600.0)
    assert bytes(client.received) == payload
