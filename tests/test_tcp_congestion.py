"""Unit tests for congestion controllers."""

from repro.tcp.congestion import FixedWindowController, RenoController

MSS = 1000


def make_reno(iw_segments=3, ssthresh=1 << 30):
    return RenoController(MSS, iw_segments * MSS, ssthresh)


def test_slow_start_doubles_per_window():
    cc = make_reno(iw_segments=2)
    assert cc.cwnd < cc.ssthresh  # slow start
    # Each full-MSS ack adds one MSS in slow start -> exponential growth.
    cwnd0 = cc.cwnd
    cc.on_ack(MSS, cwnd0)
    cc.on_ack(MSS, cwnd0)
    assert cc.cwnd == cwnd0 + 2 * MSS


def test_congestion_avoidance_linear_growth():
    cc = RenoController(MSS, 10 * MSS, 10 * MSS)  # start at ssthresh
    assert cc.cwnd == cc.ssthresh  # congestion avoidance
    start = cc.cwnd
    # One full window of acks -> +1 MSS.
    for _ in range(10):
        cc.on_ack(MSS, cc.cwnd)
    assert cc.cwnd == start + MSS


def test_fast_retransmit_halves_window():
    cc = make_reno(iw_segments=10)
    flight = 10 * MSS
    cc.on_fast_retransmit(flight)
    assert cc.ssthresh == flight // 2
    assert cc.cwnd == flight // 2 + 3 * MSS
    assert cc.in_recovery
    cc.on_dup_ack()
    assert cc.cwnd == flight // 2 + 4 * MSS
    cc.on_recovery_exit()
    assert not cc.in_recovery
    assert cc.cwnd == flight // 2


def test_partial_ack_during_recovery_deflates():
    cc = make_reno(iw_segments=10)
    cc.on_fast_retransmit(10 * MSS)
    before = cc.cwnd
    cc.on_ack(2 * MSS, 8 * MSS)
    assert cc.cwnd == before - 2 * MSS + MSS


def test_timeout_collapses_to_one_mss():
    cc = make_reno(iw_segments=10)
    cc.on_timeout(10 * MSS)
    assert cc.cwnd == MSS
    assert cc.ssthresh == 5 * MSS
    assert cc.cwnd < cc.ssthresh and not cc.in_recovery  # slow start
    cc.on_ack(MSS, MSS)
    assert cc.cwnd == 2 * MSS  # one MSS per ACK again


def test_timeout_ssthresh_floor():
    cc = make_reno(iw_segments=1)
    cc.on_timeout(MSS)
    assert cc.ssthresh == 2 * MSS


def test_ack_of_zero_bytes_is_noop():
    cc = make_reno()
    before = cc.cwnd
    cc.on_ack(0, 0)
    assert cc.cwnd == before


def test_fixed_window_ignores_everything():
    cc = FixedWindowController(64 * 1024)
    cc.on_timeout(1000)
    cc.on_fast_retransmit(1000)
    cc.on_ack(100, 100)
    cc.on_dup_ack()
    cc.on_recovery_exit()
    assert cc.cwnd == 64 * 1024
    assert not cc.in_recovery
