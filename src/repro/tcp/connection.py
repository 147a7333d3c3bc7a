"""The TCP connection state machine.

This module implements an event-driven TCP endpoint faithful enough to
reproduce the transport phenomena the paper depends on:

* three-way handshake (the paper's first packet cluster in Fig. 4);
* slow-start window ramp-up (whose elimination on the FE-BE leg is the
  whole point of split TCP);
* cumulative ACKs, duplicate-ACK fast retransmit with NewReno-style
  recovery, and RFC 6298 retransmission timeouts with Karn's algorithm;
* persistent connections whose congestion window survives across
  request/response exchanges (no idle-window reset), which is how the
  FE's long-lived back-end connection stays warm;
* immediate or delayed ACKs, and ACK piggybacking on response data.

It does **not** model window scaling negotiation (the advertised window
is a constant from config), selective acknowledgements, or simultaneous
open — none of which affect the measured quantities.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, TYPE_CHECKING

from repro.net.address import Endpoint, FlowKey
from repro.obs import runtime as _obs
from repro.net.packet import Packet
from repro.tcp.buffers import Reassembler, SendBuffer
from repro.tcp.config import TcpConfig
from repro.tcp.congestion import (
    CongestionController,
    CubicController,
    FixedWindowController,
    RenoController,
)
from repro.tcp.segment import HEADER_BYTES, Segment

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.tcp.host import TcpHost


class State(enum.Enum):
    """TCP connection states (simultaneous open/close not modelled)."""

    CLOSED = "CLOSED"
    SYN_SENT = "SYN_SENT"
    SYN_RCVD = "SYN_RCVD"
    ESTABLISHED = "ESTABLISHED"
    FIN_WAIT_1 = "FIN_WAIT_1"
    FIN_WAIT_2 = "FIN_WAIT_2"
    CLOSE_WAIT = "CLOSE_WAIT"
    LAST_ACK = "LAST_ACK"
    TIME_WAIT = "TIME_WAIT"


class ConnectionError_(Exception):
    """Raised on fatal connection failures (handshake/retry exhaustion)."""


@dataclass
class ConnectionStats:
    """Diagnostics counters for one connection."""

    segments_sent: int = 0
    segments_received: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    retransmissions: int = 0
    fast_retransmits: int = 0
    timeouts: int = 0
    dup_acks_received: int = 0


class TcpApp:
    """Application callback interface for a TCP connection.

    Subclass (or duck-type) and pass to ``TcpHost.connect`` /
    ``TcpHost.listen``.  All callbacks receive the connection first.
    """

    def on_established(self, conn: "Connection") -> None:
        """Handshake complete; the connection can carry data."""

    def on_data(self, conn: "Connection", data: bytes) -> None:
        """In-order payload bytes arrived."""

    def on_close(self, conn: "Connection") -> None:
        """The peer finished sending (FIN received and delivered)."""

    def on_error(self, conn: "Connection", message: str) -> None:
        """The connection was aborted (retry exhaustion etc.)."""


class Connection:
    """One endpoint of a TCP connection.

    Connections are created through :class:`repro.tcp.host.TcpHost`
    (active open via ``connect`` or passive open via ``listen``), never
    directly.
    """

    def __init__(self, host: "TcpHost", flow: FlowKey, app: TcpApp,
                 config: TcpConfig,
                 controller: Optional[CongestionController] = None,
                 passive: bool = False):
        self.host = host
        self.sim = host.sim
        self.flow = flow
        self.app = app
        self.config = config
        self.state = State.CLOSED
        self.passive = passive
        self.stats = ConnectionStats()
        # Flow-key fields cached as plain attributes: ``self.local`` /
        # ``self.remote`` are property hops, and the transmit path reads
        # these once per segment.
        self._node = host.node
        self._sport = flow.local.port
        self._dport = flow.remote.port
        self._src_host = flow.local.host
        self._dst_host = flow.remote.host

        if controller is not None:
            self.cc: CongestionController = controller
        elif config.fixed_window_bytes is not None:
            self.cc = FixedWindowController(config.fixed_window_bytes)
        elif config.congestion == "cubic":
            self.cc = CubicController(config.mss,
                                      config.initial_cwnd_bytes,
                                      config.initial_ssthresh_bytes,
                                      clock=lambda: self.sim.now)
        else:
            self.cc = RenoController(config.mss, config.initial_cwnd_bytes,
                                     config.initial_ssthresh_bytes)

        # Sequence bookkeeping.  ISNs are deterministic per flow for
        # reproducibility; buffers work in stream offsets.
        self.isn = host.next_isn(flow)
        self.peer_isn: Optional[int] = None
        self.send_buffer = SendBuffer()
        self.reassembler = Reassembler(config.receive_window_bytes)
        self.peer_rwnd = config.receive_window_bytes

        # Handshake / FIN bookkeeping.
        self._syn_acked = False
        self._fin_sent = False
        self._fin_acked = False
        self._peer_fin_offset: Optional[int] = None
        self._peer_fin_delivered = False

        # Loss recovery.  RTO timers are deadline-based: ACK processing
        # moves ``_rto_deadline`` (a float store) instead of cancelling
        # and rescheduling an engine event per ACK; the single sleeping
        # timer re-checks the deadline when it fires (see ``_on_rto``).
        self._dupacks = 0
        self._recover_offset = 0
        self._rto = config.initial_rto
        self._srtt: Optional[float] = None
        self._rttvar = 0.0
        self._rto_timer = None
        self._rto_deadline: Optional[float] = None
        self._retries = 0
        self._rtt_probe: Optional[tuple] = None  # (end_offset, send_time)

        # ACK generation.
        self._ack_pending = False
        self._delack_timer = None
        self._segments_since_ack = 0

        # RFC 2861 idle detection (controller kind never changes, so the
        # isinstance test runs once here instead of per send attempt).
        self._last_send_time = self.sim.now
        self._idle_reset_enabled = (
            config.slow_start_after_idle
            and isinstance(self.cc, (RenoController, CubicController)))

        self.open_time = self.sim.now
        self.established_time: Optional[float] = None
        self.close_callbacks: list = []

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    @property
    def established(self) -> bool:
        state = self.state
        return state is State.ESTABLISHED or state in (
            State.FIN_WAIT_1, State.FIN_WAIT_2, State.CLOSE_WAIT)

    @property
    def local(self) -> Endpoint:
        return self.flow.local

    @property
    def remote(self) -> Endpoint:
        return self.flow.remote

    @property
    def srtt(self) -> Optional[float]:
        """Smoothed RTT estimate in seconds (None before first sample)."""
        return self._srtt

    def send(self, data: bytes) -> None:
        """Queue application ``data`` for transmission."""
        if self._fin_sent:
            raise ConnectionError_("send after close on %s" % self.flow)
        if self.state in (State.CLOSE_WAIT,) or self.established or \
                self.state in (State.SYN_SENT, State.SYN_RCVD):
            self.send_buffer.enqueue(data)
            if self.established:
                self._try_send()
        else:
            raise ConnectionError_("send on %s connection" % self.state.value)

    def close(self) -> None:
        """Finish sending: a FIN is queued after all buffered data."""
        if self._fin_sent or self.send_buffer.fin_enqueued:
            return
        self.send_buffer.mark_fin()
        if self.established:
            self._try_send()

    def abort(self, reason: str = "aborted") -> None:
        """Tear the connection down immediately (no FIN exchange)."""
        self._cancel_timers()
        if self.state != State.CLOSED:
            self.state = State.CLOSED
            self.host.forget(self)
            self.app.on_error(self, reason)

    # ------------------------------------------------------------------
    # opening
    # ------------------------------------------------------------------
    def open_active(self) -> None:
        """Send the initial SYN (client side)."""
        if self.state != State.CLOSED:
            raise ConnectionError_("open_active in state %s" % self.state)
        self.state = State.SYN_SENT
        self._transmit(Segment(sport=self.local.port, dport=self.remote.port,
                               seq=self.isn, syn=True))
        self._arm_rto()

    def _open_passive(self, syn: Segment) -> None:
        """Respond to a received SYN (server side)."""
        self.peer_isn = syn.seq
        self.reassembler.next_expected = 0
        self.state = State.SYN_RCVD
        self._transmit(Segment(sport=self.local.port, dport=self.remote.port,
                               seq=self.isn, ack=syn.seq + 1,
                               syn=True, ack_flag=True))
        self._arm_rto()

    # ------------------------------------------------------------------
    # offset helpers: buffers track stream offsets; wire uses absolute seq
    # ------------------------------------------------------------------
    def _send_seq(self, offset: int) -> int:
        """Stream offset -> absolute sequence number (our direction)."""
        return self.isn + 1 + offset

    def _rcv_nxt(self) -> int:
        """Next absolute sequence number expected from the peer.

        Callers must guarantee ``peer_isn`` is set (every call site is
        behind a handshake or ``peer_isn is not None`` guard); this runs
        once per ACK-carrying segment, so it skips re-checking.
        """
        offset = self.reassembler.next_expected
        fin_offset = self._peer_fin_offset
        if fin_offset is not None and offset >= fin_offset:
            offset += 1
        return self.peer_isn + 1 + offset

    # ------------------------------------------------------------------
    # segment reception
    # ------------------------------------------------------------------
    def handle_segment(self, segment: Segment) -> None:
        """Entry point for every segment of this flow delivered to us."""
        stats = self.stats
        stats.segments_received += 1
        stats.bytes_received += len(segment.data)

        if self.state == State.SYN_SENT:
            self._handle_in_syn_sent(segment)
            return
        if self.state == State.CLOSED:
            return
        if segment.syn:
            # Duplicate SYN (our SYN-ACK was lost): re-ack it.
            if self.state == State.SYN_RCVD and not segment.ack_flag:
                self._transmit(Segment(
                    sport=self.local.port, dport=self.remote.port,
                    seq=self.isn, ack=segment.seq + 1,
                    syn=True, ack_flag=True, retransmit=True))
            return

        tried_send = False
        if segment.ack_flag:
            tried_send = self._process_ack(segment)
        if segment.data or segment.fin:
            self._process_payload(segment)
        self._flush_ack_or_data(tried_send=tried_send)

    def _handle_in_syn_sent(self, segment: Segment) -> None:
        if not (segment.syn and segment.ack_flag):
            return
        if segment.ack != self.isn + 1:
            return
        self.peer_isn = segment.seq
        self._syn_acked = True
        self._retries = 0
        self._sample_rtt_for_handshake()
        self._enter_established()
        # The handshake ACK; piggybacked on data when the app already
        # queued some (typical HTTP client behaviour: ACK + GET go
        # back-to-back, which is exactly the paper's t1 cluster).
        self._ack_pending = True
        self._flush_ack_or_data()

    def _enter_established(self) -> None:
        self.state = State.ESTABLISHED
        self.established_time = self.sim.now
        self._cancel_rto()
        self.app.on_established(self)
        self._try_send()

    def _process_ack(self, segment: Segment) -> bool:
        """Handle the ACK field; returns True if it ran its _try_send
        (letting handle_segment skip the redundant one in the flush)."""
        if self.state == State.SYN_RCVD:
            if segment.ack == self.isn + 1:
                self._syn_acked = True
                self._retries = 0
                self._enter_established()
            # fall through: the same segment may carry data (rare here).

        ack_offset = segment.ack - (self.isn + 1)
        fin_offset = (self.send_buffer.stream_length
                      if self.send_buffer.fin_enqueued else None)

        if fin_offset is not None and ack_offset == fin_offset + 1:
            ack_offset = fin_offset  # the +1 acknowledges our FIN
            fin_now_acked = self._fin_sent
        else:
            fin_now_acked = False

        if ack_offset > self.send_buffer.nxt:
            return False  # acks data we never sent; ignore

        newly = 0
        if ack_offset > self.send_buffer.una:
            newly = self.send_buffer.ack_to(ack_offset)
            self._retries = 0
            self._on_bytes_acked(ack_offset, newly)
        elif (ack_offset == self.send_buffer.una
              and self.send_buffer.unacked_bytes > 0
              and not segment.data and not segment.fin):
            self._on_dup_ack()

        if fin_now_acked and not self._fin_acked:
            self._fin_acked = True
            self._retries = 0
            self._advance_close_state_on_fin_ack()

        if newly or fin_now_acked:
            if self._outstanding():
                self._arm_rto(restart=True)
            else:
                self._cancel_rto()
        self._try_send()
        return True

    def _on_bytes_acked(self, ack_offset: int, newly: int) -> None:
        # RTT sampling (Karn: the probe is only set on fresh sends).
        if self._rtt_probe is not None and ack_offset >= self._rtt_probe[0]:
            self._update_rtt(self.sim._now - self._rtt_probe[1])
            self._rtt_probe = None
        if self.cc.in_recovery:
            if ack_offset >= self._recover_offset:
                self.cc.on_recovery_exit()
                self._dupacks = 0
            else:
                # NewReno partial ACK: retransmit the next hole at once.
                self.cc.on_ack(newly, self._flight_size())
                self._retransmit_una()
                return
        else:
            self._dupacks = 0
            self.cc.on_ack(newly, self._flight_size())

    def _on_dup_ack(self) -> None:
        self.stats.dup_acks_received += 1
        self._dupacks += 1
        if self.cc.in_recovery:
            self.cc.on_dup_ack()
            self._try_send()
        elif self._dupacks == self.config.dupack_threshold:
            self.stats.fast_retransmits += 1
            if _obs.enabled:
                _obs.metrics.inc("tcp.fast_retransmits")
            self._recover_offset = self.send_buffer.nxt
            self.cc.on_fast_retransmit(self._flight_size())
            self._retransmit_una()

    def _process_payload(self, segment: Segment) -> None:
        if self.peer_isn is None:
            return
        offset = segment.seq - (self.peer_isn + 1)
        delivered = self.reassembler.offer(offset, segment.data)

        if segment.fin:
            fin_offset = offset + len(segment.data)
            if (self._peer_fin_offset is None
                    or fin_offset < self._peer_fin_offset):
                self._peer_fin_offset = fin_offset

        self._ack_pending = True
        self._segments_since_ack += 1

        if delivered:
            self.app.on_data(self, delivered)
        self._maybe_deliver_fin()

    def _maybe_deliver_fin(self) -> None:
        if (self._peer_fin_offset is not None
                and not self._peer_fin_delivered
                and self.reassembler.next_expected >= self._peer_fin_offset):
            self._peer_fin_delivered = True
            self._advance_close_state_on_peer_fin()
            self.app.on_close(self)

    # ------------------------------------------------------------------
    # close-state transitions
    # ------------------------------------------------------------------
    def _advance_close_state_on_peer_fin(self) -> None:
        if self.state == State.ESTABLISHED:
            self.state = State.CLOSE_WAIT
        elif self.state == State.FIN_WAIT_1:
            # Proper TCP would pass through CLOSING when our FIN is not
            # yet acked; collapsing to TIME_WAIT does not change timing.
            self.state = State.TIME_WAIT
            self._schedule_forget()
        elif self.state == State.FIN_WAIT_2:
            self.state = State.TIME_WAIT
            self._schedule_forget()

    def _advance_close_state_on_fin_ack(self) -> None:
        if self.state == State.FIN_WAIT_1:
            self.state = (State.TIME_WAIT if self._peer_fin_delivered
                          else State.FIN_WAIT_2)
            if self.state == State.TIME_WAIT:
                self._schedule_forget()
        elif self.state == State.LAST_ACK:
            self.state = State.CLOSED
            self._cancel_timers()
            self.host.forget(self)

    def _schedule_forget(self) -> None:
        """Approximate TIME_WAIT: linger 2 RTO then release the flow."""
        self._cancel_timers()
        # TIME_WAIT expiry is unconditional; the handle is never cancelled.
        self.sim.schedule(2 * self._rto,
                          self._finish_time_wait)  # simlint: ignore[EVT003]

    def _finish_time_wait(self) -> None:
        if self.state == State.TIME_WAIT:
            self.state = State.CLOSED
            self.host.forget(self)

    # ------------------------------------------------------------------
    # transmission
    # ------------------------------------------------------------------
    def _flight_size(self) -> int:
        return self.send_buffer.unacked_bytes

    def _outstanding(self) -> bool:
        if self.send_buffer.unacked_bytes > 0:
            return True
        if self._fin_sent and not self._fin_acked:
            return True
        if self.state in (State.SYN_SENT, State.SYN_RCVD):
            return True
        return False

    def _window_available(self) -> int:
        window = min(self.cc.cwnd, self.peer_rwnd)
        return max(0, window - self._flight_size())

    def _try_send(self) -> None:
        """Transmit as much new data as the windows allow."""
        sb = self.send_buffer
        # Nothing unsent and no FIN pending: skip the whole window scan.
        # On a one-directional transfer roughly half of all calls land
        # here (the receiving side runs _try_send once per segment), so
        # this early-out is load-bearing for bulk-transfer throughput.
        # The RFC 2861 idle check still runs when enabled: a pure ACK
        # can refresh _last_send_time before the next data send, so the
        # collapse cannot be deferred to the sending call.
        if sb.nxt == sb.stream_length and (
                self._fin_sent or not sb.fin_enqueued):
            if self._idle_reset_enabled and self.established:
                self._maybe_reset_after_idle()
            return
        if not self.established:
            return
        self._maybe_reset_after_idle()
        sent_any = False
        # Window bounds are loop-invariant (cc.on_ack never runs inside
        # the loop), so they are computed once, and flight is tracked
        # from the buffer offsets directly.
        config = self.config
        mss = config.mss
        nagle = config.nagle
        window = self.cc.cwnd
        if self.peer_rwnd < window:
            window = self.peer_rwnd
        # Also invariant inside the loop: nothing in it enqueues data or
        # receives segments, so stream length and the ACK fields are
        # fixed for the batch.
        length = sb.stream_length
        sport = self._sport
        dport = self._dport
        has_peer = self.peer_isn is not None
        rcv_nxt = self._rcv_nxt() if has_peer else 0
        seq_base = self.isn + 1
        while True:
            available = window - (sb.nxt - sb.una)
            unsent = length - sb.nxt
            if unsent <= 0 or available <= 0:
                break
            size = mss
            if unsent < size:
                size = unsent
            if available < size:
                size = available
            if nagle and size < mss and sb.nxt - sb.una > 0:
                break
            offset = sb.nxt
            data = sb.peek_view(offset, size)
            sb.advance_nxt(len(data))
            fin = (sb.fin_enqueued
                   and length == sb.nxt
                   and not self._fin_sent)
            if fin:
                self._fin_sent = True
                self._note_fin_state()
            segment = Segment(sport=sport, dport=dport,
                              seq=seq_base + offset,
                              ack=rcv_nxt, ack_flag=has_peer,
                              data=data, fin=fin)
            if self._rtt_probe is None:
                self._rtt_probe = (offset + len(data), self.sim._now)
            self._transmit(segment)
            self._ack_pending = False
            self._segments_since_ack = 0
            sent_any = True
        # A bare FIN when everything was already sent.
        if (self.send_buffer.fin_enqueued and not self._fin_sent
                and self.send_buffer.unsent_bytes == 0
                and self._window_available() >= 0):
            self._fin_sent = True
            self._note_fin_state()
            self._transmit(Segment(
                sport=self.local.port, dport=self.remote.port,
                seq=self._send_seq(self.send_buffer.stream_length),
                ack=self._rcv_nxt() if self.peer_isn is not None else 0,
                ack_flag=self.peer_isn is not None, fin=True))
            self._ack_pending = False
            sent_any = True
        if sent_any:
            self._arm_rto()

    def _maybe_reset_after_idle(self) -> None:
        """RFC 2861: collapse cwnd after an idle period (if configured)."""
        if not self._idle_reset_enabled:
            return
        if self.send_buffer.unacked_bytes > 0:
            return  # not idle: data is in flight
        idle = self.sim._now - self._last_send_time
        if idle > max(self._rto, self.config.min_rto):
            self.cc.cwnd = min(self.cc.cwnd, self.config.initial_cwnd_bytes)

    def _note_fin_state(self) -> None:
        if self.state == State.ESTABLISHED:
            self.state = State.FIN_WAIT_1
        elif self.state == State.CLOSE_WAIT:
            self.state = State.LAST_ACK

    def _retransmit_una(self) -> None:
        """Retransmit the first unacknowledged segment."""
        self.stats.retransmissions += 1
        if _obs.enabled:
            _obs.metrics.inc("tcp.retransmissions")
        offset = self.send_buffer.una
        if offset < self.send_buffer.stream_length:
            size = min(self.config.mss,
                       self.send_buffer.nxt - offset) or self.config.mss
            data = self.send_buffer.peek_view(offset, size)
            fin = (self._fin_sent
                   and offset + len(data) >= self.send_buffer.stream_length)
            segment = Segment(sport=self.local.port, dport=self.remote.port,
                              seq=self._send_seq(offset),
                              ack=self._rcv_nxt() if self.peer_isn is not None else 0,
                              ack_flag=self.peer_isn is not None,
                              data=data, fin=fin, retransmit=True)
        elif self._fin_sent and not self._fin_acked:
            segment = Segment(sport=self.local.port, dport=self.remote.port,
                              seq=self._send_seq(self.send_buffer.stream_length),
                              ack=self._rcv_nxt() if self.peer_isn is not None else 0,
                              ack_flag=self.peer_isn is not None,
                              fin=True, retransmit=True)
        else:
            return
        self._rtt_probe = None  # Karn's algorithm
        self._transmit(segment)
        self._arm_rto(restart=True)

    def _flush_ack_or_data(self, tried_send: bool = False) -> None:
        """Send queued data (which piggybacks the ACK) or a pure ACK.

        ``tried_send=True`` means _process_ack already ran _try_send for
        this segment and nothing changed since (app sends trigger their
        own _try_send), so the redundant window scan is skipped.
        """
        if not tried_send:
            self._try_send()
        if not self._ack_pending or self.peer_isn is None:
            return
        if self.config.delayed_ack and self._segments_since_ack < 2 \
                and self._peer_fin_offset is None:
            if self._delack_timer is None:
                self._delack_timer = self.sim.schedule(
                    self.config.delayed_ack_timeout, self._delack_fire)
            return
        self._send_pure_ack()

    def _delack_fire(self) -> None:
        self._delack_timer = None
        if self._ack_pending:
            self._send_pure_ack()

    def _send_pure_ack(self) -> None:
        self._ack_pending = False
        self._segments_since_ack = 0
        if self._delack_timer is not None:
            self.sim.cancel(self._delack_timer)
            self._delack_timer = None
        self._transmit(Segment(sport=self._sport, dport=self._dport,
                               seq=self.isn + 1 + self.send_buffer.nxt,
                               ack=self._rcv_nxt(), ack_flag=True))

    def _transmit(self, segment: Segment) -> None:
        stats = self.stats
        stats.segments_sent += 1
        size = len(segment.data)
        stats.bytes_sent += size
        self._last_send_time = self.sim._now
        packet = Packet(src=self._src_host, dst=self._dst_host,
                        protocol="tcp", size_bytes=HEADER_BYTES + size,
                        payload=segment)
        self._node.send(packet)

    # ------------------------------------------------------------------
    # timers & RTT estimation (RFC 6298)
    # ------------------------------------------------------------------
    def _update_rtt(self, sample: float) -> None:
        if sample < 0:
            return
        if self._srtt is None:
            self._srtt = sample
            self._rttvar = sample / 2.0
        else:
            alpha, beta = 1.0 / 8.0, 1.0 / 4.0
            self._rttvar = ((1 - beta) * self._rttvar
                            + beta * abs(self._srtt - sample))
            self._srtt = (1 - alpha) * self._srtt + alpha * sample
        self._rto = self._srtt + max(4 * self._rttvar, 0.001)
        self._rto = min(max(self._rto, self.config.min_rto),
                        self.config.max_rto)

    def _sample_rtt_for_handshake(self) -> None:
        self._update_rtt(self.sim.now - self.open_time)

    def _arm_rto(self, restart: bool = False) -> None:
        """(Re)arm the retransmission timer.

        ``_rto_deadline`` is the authoritative expiry; the engine event
        is only a wake-up that re-checks it.  Restarting on every ACK is
        therefore a float store, not an engine cancel + reschedule — the
        dominant timer cost of a bulk transfer.
        """
        deadline = self._rto_deadline
        if restart or deadline is None:
            deadline = self.sim._now + self._rto
            self._rto_deadline = deadline
            timer = self._rto_timer
            if timer is None:
                self._rto_timer = self.sim.call_at(deadline, self._on_rto)
            elif timer[0] > deadline:
                # The sleeping wake-up (entry[0] is its scheduled time)
                # would fire too late for the new, earlier deadline (the
                # RTO estimate shrank): reschedule it.
                self.sim.cancel(timer)
                self._rto_timer = self.sim.call_at(deadline, self._on_rto)

    def _cancel_rto(self) -> None:
        # Real cancel, not just a deadline clear: a sleeping wake-up
        # would otherwise keep the queue non-idle after quiesce and
        # stretch run()'s end time past the last real event.
        self._rto_deadline = None
        if self._rto_timer is not None:
            self.sim.cancel(self._rto_timer)
            self._rto_timer = None

    def _cancel_timers(self) -> None:
        self._cancel_rto()
        if self._delack_timer is not None:
            self.sim.cancel(self._delack_timer)
            self._delack_timer = None

    def _on_rto(self) -> None:
        self._rto_timer = None
        deadline = self._rto_deadline
        if deadline is None:
            return  # lazily disarmed; nothing outstanding
        if deadline > self.sim._now:
            # ACK progress pushed the deadline while we slept; sleep out
            # the remainder.
            self._rto_timer = self.sim.call_at(deadline, self._on_rto)
            return
        self._rto_deadline = None
        if not self._outstanding():
            return
        self.stats.timeouts += 1
        if _obs.enabled:
            _obs.metrics.inc("tcp.timeouts")
        self._retries += 1
        limit = (self.config.max_syn_retries
                 if self.state in (State.SYN_SENT, State.SYN_RCVD)
                 else self.config.max_data_retries)
        if self._retries > limit:
            self.abort("retry limit exceeded in %s" % self.state.value)
            return
        self._rto = min(self._rto * 2, self.config.max_rto)
        if self.state == State.SYN_SENT:
            self._transmit(Segment(sport=self.local.port,
                                   dport=self.remote.port,
                                   seq=self.isn, syn=True, retransmit=True))
        elif self.state == State.SYN_RCVD:
            self._transmit(Segment(sport=self.local.port,
                                   dport=self.remote.port,
                                   seq=self.isn, ack=self.peer_isn + 1,
                                   syn=True, ack_flag=True, retransmit=True))
        else:
            self.cc.on_timeout(self._flight_size())
            self._dupacks = 0
            self._retransmit_una()
            return  # _retransmit_una re-armed the timer
        self._arm_rto()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<Connection %s %s cwnd=%d>" % (
            self.flow, self.state.value, self.cc.cwnd)
