"""TCP stack configuration.

One :class:`TcpConfig` is attached per host stack (and may be overridden
per connection).  The defaults approximate a 2011-era Linux server stack —
the era of the paper's measurements — with an initial window of 3 segments
(RFC 3390; Google had only just begun experimenting with IW10 then).

The reproduction's split-TCP ablation works by varying these knobs: a
front-end server terminates the user connection with a normal cold stack
but talks to the back-end over a long-lived, already-warm connection.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim import units
from repro.tcp.segment import DEFAULT_MSS

#: Bounds on the retransmission timeout, seconds.
MIN_RTO = units.ms(200)
MAX_RTO = 60.0
#: RTO before the first RTT sample (RFC 6298 says 1 s).
INITIAL_RTO = 1.0
#: Duplicate ACKs that trigger fast retransmit.
DUPACK_THRESHOLD = 3
#: Retransmission attempts before the connection is aborted.
MAX_SYN_RETRIES = 6
MAX_DATA_RETRIES = 10


@dataclass(frozen=True)
class TcpConfig:
    """Tunables for one TCP endpoint.

    Attributes
    ----------
    mss:
        Maximum segment payload size in bytes.
    initial_window_segments:
        Initial congestion window, in segments (RFC 3390 allows up to 4;
        IW10 deployments use 10).
    initial_ssthresh_bytes:
        Initial slow-start threshold; effectively "infinite" by default.
    receive_window_bytes:
        Advertised receive window (held constant; window scaling is
        assumed).
    fixed_window_bytes:
        When set, the connection uses a
        :class:`~repro.tcp.congestion.FixedWindowController` pinned at
        this many bytes instead of Reno.  Models an operator-tuned
        internal path whose per-flow share is provisioned (no slow
        start, no unbounded growth) — the FE-BE legs of split TCP.
    congestion:
        Loss-based congestion-control algorithm: ``"reno"`` (NewReno,
        the default) or ``"cubic"`` (the 2011 Linux default).  Ignored
        when ``fixed_window_bytes`` is set or an explicit controller is
        passed to the connection.
    slow_start_after_idle:
        RFC 2861 congestion-window validation: after the connection has
        been idle for more than one RTO, collapse cwnd back to the
        initial window.  2011 Linux shipped with this ON; content
        providers turned it OFF for their persistent internal
        connections — exactly the knob split TCP's warm-connection
        benefit depends on, and what the idle-reset ablation measures.
        No effect on fixed-window connections.
    """

    mss: int = DEFAULT_MSS
    initial_window_segments: int = 3
    initial_ssthresh_bytes: int = 1 << 30
    receive_window_bytes: int = 1 << 20
    fixed_window_bytes: "int | None" = None
    slow_start_after_idle: bool = False
    congestion: str = "reno"

    def __post_init__(self):
        if self.mss <= 0:
            raise ValueError("mss must be positive")
        if self.initial_window_segments <= 0:
            raise ValueError("initial_window_segments must be positive")
        if self.receive_window_bytes < self.mss:
            raise ValueError("receive window smaller than one MSS")
        if self.fixed_window_bytes is not None \
                and self.fixed_window_bytes < self.mss:
            raise ValueError("fixed window smaller than one MSS")
        if self.congestion not in ("reno", "cubic"):
            raise ValueError("congestion must be 'reno' or 'cubic', "
                             "got %r" % (self.congestion,))

    @property
    def initial_cwnd_bytes(self) -> int:
        return self.mss * self.initial_window_segments

