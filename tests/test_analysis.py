"""Tests for the analysis package: stats, streams, boundaries, clusters."""

import pytest

from repro.analysis import stats
from repro.analysis.boundary import common_prefix_length
from repro.analysis.stream import (
    TraceError,
    arrival_time_of_offset,
    inbound_byte_arrivals,
    peer_isn,
    reconstruct_inbound_stream,
)
from repro.measure.capture import PacketEvent


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------
def test_median_and_percentile():
    assert stats.median([3, 1, 2]) == 2
    assert stats.percentile([1, 2, 3, 4, 5], 50) == 3
    with pytest.raises(ValueError):
        stats.median([])


def test_cdf_points_and_fraction_below():
    points = stats.cdf_points([3, 1, 2, 2])
    assert points[0] == (1, 0.25)
    assert points[-1] == (3, 1.0)
    assert stats.fraction_below([1, 2, 3, 4], 3) == 0.5
    assert stats.cdf_points([]) == []


def test_box_stats_quartiles():
    box = stats.box_stats(list(range(1, 101)))
    assert box.median == pytest.approx(50.5)
    assert box.q1 == pytest.approx(25.75)
    assert box.q3 == pytest.approx(75.25)
    assert box.low_whisker >= 1
    assert box.high_whisker <= 100
    assert box.q3 - box.q1 == pytest.approx(49.5)


def test_binned_medians():
    x = [5, 15, 16, 25]
    y = [1.0, 2.0, 4.0, 8.0]
    points = stats.binned_medians(x, y, bin_width=10)
    assert points == [(5.0, 1.0), (15.0, 3.0), (25.0, 8.0)]
    with pytest.raises(ValueError):
        stats.binned_medians([1], [1, 2], 10)


def test_linear_fit_recovers_line():
    x = list(range(20))
    y = [0.5 * xi + 3 for xi in x]
    fit = stats.linear_fit(x, y)
    assert fit.slope == pytest.approx(0.5)
    assert fit.intercept == pytest.approx(3.0)
    assert fit.r_squared == pytest.approx(1.0)
    assert fit.slope * 100 + fit.intercept == pytest.approx(53.0)
    with pytest.raises(ValueError):
        stats.linear_fit([1, 1], [2, 3])


def test_summary_fields():
    info = stats.summary([1.0, 2.0, 3.0])
    assert info["mean"] == pytest.approx(2.0)
    assert info["median"] == 2.0
    assert info["n"] == 3
    assert info["min"] == 1.0 and info["max"] == 3.0


# ---------------------------------------------------------------------------
# stream reconstruction
# ---------------------------------------------------------------------------
def make_event(time, direction, seq=0, payload=b"", syn=False,
               ack_flag=False, ack=0, fin=False):
    return PacketEvent(time=time, direction=direction, src="s", dst="c",
                       sport=80, dport=5000, wire_size=40 + len(payload),
                       payload_len=len(payload), seq=seq, ack=ack,
                       syn=syn, fin=fin, ack_flag=ack_flag,
                       retransmit=False, payload=payload or None)


def handshake_events(isn=1000):
    return [
        make_event(0.00, "out", seq=1, syn=True),
        make_event(0.01, "in", seq=isn, syn=True, ack_flag=True, ack=2),
    ]


def test_peer_isn_extraction():
    events = handshake_events(isn=777)
    assert peer_isn(events) == 777
    with pytest.raises(TraceError):
        peer_isn([make_event(0, "out", syn=True)])


def test_byte_arrivals_in_order():
    isn = 100
    events = handshake_events(isn) + [
        make_event(0.05, "in", seq=isn + 1, payload=b"aaaa"),
        make_event(0.06, "in", seq=isn + 5, payload=b"bbbb"),
    ]
    arrivals = inbound_byte_arrivals(events)
    assert [(a.start, a.end) for a in arrivals] == [(0, 4), (4, 8)]
    assert sum(a.end - a.start for a in arrivals) == 8


def test_byte_arrivals_ignore_retransmitted_overlap():
    isn = 100
    events = handshake_events(isn) + [
        make_event(0.05, "in", seq=isn + 1, payload=b"aaaa"),
        make_event(0.06, "in", seq=isn + 1, payload=b"aaaa"),  # dup
        make_event(0.07, "in", seq=isn + 3, payload=b"aabb"),  # overlap
    ]
    arrivals = inbound_byte_arrivals(events)
    assert [(a.start, a.end) for a in arrivals] == [(0, 4), (4, 6)]


def test_arrival_time_of_offset():
    isn = 0
    events = handshake_events(isn) + [
        make_event(0.05, "in", seq=isn + 1, payload=b"xxxx"),
        make_event(0.20, "in", seq=isn + 5, payload=b"yyyy"),
    ]
    arrivals = inbound_byte_arrivals(events)
    assert arrival_time_of_offset(arrivals, 0) == 0.05
    assert arrival_time_of_offset(arrivals, 3) == 0.05
    assert arrival_time_of_offset(arrivals, 4) == 0.20
    assert arrival_time_of_offset(arrivals, 99) is None


def test_reconstruct_stream_with_out_of_order():
    isn = 50
    events = handshake_events(isn) + [
        make_event(0.05, "in", seq=isn + 5, payload=b"world"),
        make_event(0.06, "in", seq=isn + 1, payload=b"hell"),
    ]
    assert reconstruct_inbound_stream(events) == b"hellworld"


def test_reconstruct_stream_detects_holes():
    isn = 50
    events = handshake_events(isn) + [
        make_event(0.05, "in", seq=isn + 10, payload=b"late"),
    ]
    with pytest.raises(TraceError):
        reconstruct_inbound_stream(events)


def test_reconstruct_requires_payloads():
    isn = 50
    event = PacketEvent(time=0.05, direction="in", src="s", dst="c",
                        sport=80, dport=5000, wire_size=44, payload_len=4,
                        seq=isn + 1, ack=0, syn=False, fin=False,
                        ack_flag=True, retransmit=False, payload=None)
    with pytest.raises(TraceError):
        reconstruct_inbound_stream(handshake_events(isn) + [event])


# ---------------------------------------------------------------------------
# boundary detection
# ---------------------------------------------------------------------------
def test_common_prefix_length():
    assert common_prefix_length([b"abcdef", b"abcxyz"]) == 3
    assert common_prefix_length([b"same", b"same"]) == 4
    assert common_prefix_length([b"", b"abc"]) == 0
    assert common_prefix_length([b"abc"]) == 3
    with pytest.raises(ValueError):
        common_prefix_length([])
