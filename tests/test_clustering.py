"""Dedicated tests for temporal clustering of packet events."""

import pytest

from repro.analysis.clustering import cluster_by_gap
from repro.measure.capture import PacketEvent


def make_event(time, direction="in", payload_len=100, syn=False,
               ack_flag=True, seq=0):
    return PacketEvent(time=time, direction=direction, src="s", dst="c",
                       sport=80, dport=5000,
                       wire_size=40 + payload_len,
                       payload_len=payload_len, seq=seq, ack=0,
                       syn=syn, fin=False, ack_flag=ack_flag,
                       retransmit=False, payload=None)


def test_cluster_by_gap_splits_at_gaps():
    events = [make_event(t) for t in (0.0, 0.001, 0.002,
                                      0.100, 0.101,
                                      0.300)]
    clusters = cluster_by_gap(events, gap=0.050)
    assert [len(c.events) for c in clusters] == [3, 2, 1]
    first, second = clusters[0].events, clusters[1].events
    assert first[-1].time - first[0].time == pytest.approx(0.002)
    assert second[0].time == pytest.approx(0.100)


def test_cluster_by_gap_single_cluster():
    events = [make_event(t) for t in (0.0, 0.01, 0.02)]
    clusters = cluster_by_gap(events, gap=0.5)
    assert len(clusters) == 1
    assert sum(e.payload_len for e in clusters[0].events) == 300


def test_cluster_by_gap_empty_and_validation():
    assert cluster_by_gap([], gap=0.1) == []
    with pytest.raises(ValueError):
        cluster_by_gap([], gap=0)
