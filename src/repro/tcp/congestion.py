"""Congestion control.

The default algorithm is a NewReno-flavoured Reno: slow start, additive
increase, fast retransmit / fast recovery with window inflation, and
timeout back-off to one segment.  Window state is kept in *bytes*.

The controller is deliberately separated from the connection state
machine behind a small interface so tests can exercise it directly and an
"always-open" variant can model an operator-tuned internal network (used
by the BE-FE persistent-connection ablation).
"""

from __future__ import annotations


class CongestionController:
    """Interface for congestion-control algorithms.

    All quantities are bytes.  The connection calls the ``on_*`` hooks;
    :attr:`cwnd` is read back when deciding how much may be in flight.
    """

    cwnd: int
    ssthresh: int

    def on_ack(self, newly_acked: int, flight_size: int) -> None:
        raise NotImplementedError

    def on_dup_ack(self) -> None:
        raise NotImplementedError

    def on_fast_retransmit(self, flight_size: int) -> None:
        raise NotImplementedError

    def on_recovery_exit(self) -> None:
        raise NotImplementedError

    def on_timeout(self, flight_size: int) -> None:
        raise NotImplementedError

    @property
    def in_recovery(self) -> bool:
        raise NotImplementedError


class RenoController(CongestionController):
    """NewReno-style congestion control in bytes."""

    def __init__(self, mss: int, initial_cwnd: int, initial_ssthresh: int):
        if mss <= 0:
            raise ValueError("mss must be positive")
        self.mss = mss
        self.cwnd = int(initial_cwnd)
        self.ssthresh = int(initial_ssthresh)
        self._recovery = False
        self._acked_fraction = 0  # CA byte accumulator

    # ------------------------------------------------------------------
    @property
    def in_recovery(self) -> bool:
        return self._recovery

    # ------------------------------------------------------------------
    def on_ack(self, newly_acked: int, flight_size: int) -> None:
        """A cumulative ACK advanced snd_una by ``newly_acked`` bytes."""
        if newly_acked <= 0:
            return
        if self._recovery:
            # Partial ACK during fast recovery: deflate by the amount
            # acked, then add back one MSS (NewReno partial-ack rule).
            self.cwnd = max(self.mss, self.cwnd - newly_acked + self.mss)
            return
        if self.cwnd < self.ssthresh:  # slow start
            self.cwnd += min(newly_acked, self.mss)
        else:
            # Additive increase: one MSS per cwnd of data acked.
            self._acked_fraction += newly_acked
            if self._acked_fraction >= self.cwnd:
                self._acked_fraction -= self.cwnd
                self.cwnd += self.mss

    def on_dup_ack(self) -> None:
        """Window inflation for each duplicate ACK during recovery."""
        if self._recovery:
            self.cwnd += self.mss

    def on_fast_retransmit(self, flight_size: int) -> None:
        """Enter fast recovery (third duplicate ACK)."""
        self.ssthresh = max(2 * self.mss, flight_size // 2)
        self.cwnd = self.ssthresh + 3 * self.mss
        self._recovery = True
        self._acked_fraction = 0

    def on_recovery_exit(self) -> None:
        """Full ACK received: deflate the window back to ssthresh."""
        self._recovery = False
        self.cwnd = self.ssthresh

    def on_timeout(self, flight_size: int) -> None:
        """RTO fired: collapse to one segment and restart slow start."""
        self.ssthresh = max(2 * self.mss, flight_size // 2)
        self.cwnd = self.mss
        self._recovery = False
        self._acked_fraction = 0


class CubicController(CongestionController):
    """Simplified CUBIC (RFC 8312 shape) — the 2011 Linux default.

    Window growth after a congestion event follows
    ``W(t) = C_CUBIC * (t - K)^3 + W_max`` (in segments, t in seconds),
    which is concave up to the previous maximum and convex beyond it.
    Slow start below ``ssthresh`` is unchanged.  TCP-friendliness
    (the Reno-tracking lower bound) and fast-convergence are included in
    simplified form; hybrid slow start is not.

    The controller needs wall-clock time: pass the simulator's clock as
    the ``clock`` callable.
    """

    C_CUBIC = 0.4     # segments / s^3, the standard constant
    BETA = 0.7        # multiplicative decrease factor

    def __init__(self, mss: int, initial_cwnd: int, initial_ssthresh: int,
                 clock):
        if mss <= 0:
            raise ValueError("mss must be positive")
        if not callable(clock):
            raise TypeError("clock must be callable")
        self.mss = mss
        self.cwnd = int(initial_cwnd)
        self.ssthresh = int(initial_ssthresh)
        self.clock = clock
        self._recovery = False
        self._w_max = float(initial_cwnd) / mss   # segments
        self._epoch_start: float = None
        self._k = 0.0

    # ------------------------------------------------------------------
    @property
    def in_slow_start(self) -> bool:
        return self.cwnd < self.ssthresh and not self._recovery

    @property
    def in_recovery(self) -> bool:
        return self._recovery

    # ------------------------------------------------------------------
    def _begin_epoch(self) -> None:
        self._epoch_start = self.clock()
        w_now = self.cwnd / self.mss
        if w_now < self._w_max:
            self._k = ((self._w_max - w_now) / self.C_CUBIC) ** (1.0 / 3)
        else:
            self._k = 0.0
            self._w_max = w_now

    def _cubic_window_segments(self) -> float:
        if self._epoch_start is None:
            self._begin_epoch()
        t = self.clock() - self._epoch_start
        return (self.C_CUBIC * (t - self._k) ** 3 + self._w_max)

    # ------------------------------------------------------------------
    def on_ack(self, newly_acked: int, flight_size: int) -> None:
        if newly_acked <= 0:
            return
        if self._recovery:
            self.cwnd = max(self.mss, self.cwnd - newly_acked + self.mss)
            return
        if self.in_slow_start:
            self.cwnd += min(newly_acked, self.mss)
            return
        target = self._cubic_window_segments() * self.mss
        if target > self.cwnd:
            # Approach the cubic target gradually (per-RTT pacing is
            # approximated by capping growth per ACK).
            self.cwnd = int(min(target, self.cwnd + self.mss))
        else:
            # TCP-friendly floor: never grow slower than Reno's
            # 1 MSS / RTT (approximated as Reno's per-ack share).
            self.cwnd += max(0, int(self.mss * newly_acked / self.cwnd))

    def on_dup_ack(self) -> None:
        if self._recovery:
            self.cwnd += self.mss

    def on_fast_retransmit(self, flight_size: int) -> None:
        w_now = self.cwnd / self.mss
        # Fast convergence: release bandwidth faster when the max drops.
        if w_now < self._w_max:
            self._w_max = w_now * (1.0 + self.BETA) / 2.0
        else:
            self._w_max = w_now
        self.ssthresh = max(2 * self.mss, int(self.cwnd * self.BETA))
        self.cwnd = self.ssthresh + 3 * self.mss
        self._recovery = True
        self._epoch_start = None

    def on_recovery_exit(self) -> None:
        self._recovery = False
        self.cwnd = self.ssthresh
        self._begin_epoch()

    def on_timeout(self, flight_size: int) -> None:
        self._w_max = self.cwnd / self.mss
        self.ssthresh = max(2 * self.mss, int(self.cwnd * self.BETA))
        self.cwnd = self.mss
        self._recovery = False
        self._epoch_start = None


class FixedWindowController(CongestionController):
    """A controller pinned at a constant window.

    Models a provisioned internal path (e.g. an operator's private FE-BE
    backbone with tuned stacks) and is used by ablation benchmarks to
    isolate the effect of window ramp-up from propagation delay.
    """

    def __init__(self, window_bytes: int):
        if window_bytes <= 0:
            raise ValueError("window must be positive")
        self.cwnd = int(window_bytes)
        self.ssthresh = int(window_bytes)

    def on_ack(self, newly_acked: int, flight_size: int) -> None:
        pass

    def on_dup_ack(self) -> None:
        pass

    def on_fast_retransmit(self, flight_size: int) -> None:
        pass

    def on_recovery_exit(self) -> None:
        pass

    def on_timeout(self, flight_size: int) -> None:
        pass

    @property
    def in_recovery(self) -> bool:
        return False
