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
* immediate ACKs, and ACK piggybacking on response data.

It does **not** model window scaling negotiation (the advertised window
is a constant from config), selective acknowledgements, or simultaneous
open — none of which affect the measured quantities.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, TYPE_CHECKING

from repro.net.address import FlowKey
from repro.obs import runtime as _obs
from repro.tcp.buffers import Reassembler, SendBuffer
from repro.tcp.config import (
    DUPACK_THRESHOLD,
    INITIAL_RTO,
    MAX_DATA_RETRIES,
    MAX_RTO,
    MAX_SYN_RETRIES,
    MIN_RTO,
    TcpConfig,
)
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
    """Loss-recovery counters for one connection."""

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
    directly.  A connection resolves the link toward its peer when it is
    made, and sends every segment on it; a host with no link to the peer
    raises ``ValueError``.
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
        # Flow-key fields cached as plain attributes: every segment built
        # or stamped reads them.
        self._sport = flow.local.port
        self._dport = flow.remote.port
        self._src_host = flow.local.host
        self._dst_host = flow.remote.host
        self._link = host.node.links.get(self._dst_host)
        if self._link is None:
            raise ValueError("%s has no link to %s"
                             % (self._src_host, self._dst_host))

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
        self._rto = INITIAL_RTO
        self._srtt: Optional[float] = None
        self._rttvar = 0.0
        self._rto_timer = None
        self._rto_deadline: Optional[float] = None
        self._retries = 0
        self._rtt_probe: Optional[tuple] = None  # (end_offset, send_time)

        # ACK generation.
        self._ack_pending = False

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
        self._cancel_rto()
        if self.state != State.CLOSED:
            self.state = State.CLOSED
            app = self.app
            self._release()
            app.on_error(self, reason)

    # ------------------------------------------------------------------
    # opening
    # ------------------------------------------------------------------
    def open_active(self) -> None:
        """Send the initial SYN (client side)."""
        if self.state != State.CLOSED:
            raise ConnectionError_("open_active in state %s" % self.state)
        self.state = State.SYN_SENT
        self._transmit(Segment(self._sport, self._dport, self.isn, 0, b"",
                               True))
        self._arm_rto()

    def _open_passive(self, syn: Segment) -> None:
        """Respond to a received SYN (server side)."""
        self.peer_isn = syn.seq
        self.reassembler.next_expected = 0
        self.state = State.SYN_RCVD
        self._transmit(Segment(self._sport, self._dport, self.isn,
                               syn.seq + 1, b"", True, False, True))
        self._arm_rto()

    # ------------------------------------------------------------------
    # buffers track stream offsets; the wire uses absolute sequence
    # numbers: our stream offset o goes out as isn + 1 + o
    # ------------------------------------------------------------------
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
        """Entry point for every segment of this flow delivered to us.

        In order: the ACK field, then the payload, then one window scan
        (skipped when the ACK processing already ran it), then a pure
        ACK if the payload asked for one and no data segment carried it.
        """
        state = self.state
        tried_send = False
        if state is State.SYN_SENT:
            if not self._handle_in_syn_sent(segment):
                return
        elif state is State.CLOSED:
            return
        elif segment.syn:
            # Duplicate SYN (our SYN-ACK was lost): re-ack it.
            if state is State.SYN_RCVD and not segment.ack_flag:
                self._transmit(Segment(self._sport, self._dport, self.isn,
                                       segment.seq + 1, b"", True, False,
                                       True, True))
            return
        else:
            if segment.ack_flag:
                tried_send = self._process_ack(segment)
            if segment.data or segment.fin:
                self._process_payload(segment)
        if not tried_send:
            self._try_send()
        if self._ack_pending:
            # Set only once peer_isn is known (payload or handshake).
            self._ack_pending = False
            self._transmit(Segment(self._sport, self._dport,
                                   self.isn + 1 + self.send_buffer.nxt,
                                   self._rcv_nxt(), b"", False, False,
                                   True))

    def _handle_in_syn_sent(self, segment: Segment) -> bool:
        """Complete an active open on the SYN-ACK; returns True when the
        handshake ACK is due (handle_segment sends it)."""
        if not (segment.syn and segment.ack_flag):
            return False
        if segment.ack != self.isn + 1:
            return False
        self.peer_isn = segment.seq
        self._syn_acked = True
        self._retries = 0
        self._sample_rtt_for_handshake()
        self._enter_established()
        # The handshake ACK; piggybacked on data when the app already
        # queued some (typical HTTP client behaviour: ACK + GET go
        # back-to-back, which is exactly the paper's t1 cluster).
        self._ack_pending = True
        return True

    def _enter_established(self) -> None:
        self.state = State.ESTABLISHED
        self.established_time = self.sim.now
        self._cancel_rto()
        self.app.on_established(self)
        self._try_send()

    def _process_ack(self, segment: Segment) -> bool:
        """Handle the ACK field; returns True if it ran its _try_send
        (letting handle_segment skip the redundant one)."""
        if self.state is State.SYN_RCVD:
            if segment.ack == self.isn + 1:
                self._syn_acked = True
                self._retries = 0
                self._enter_established()
            # fall through: the same segment may carry data (rare here).

        sb = self.send_buffer
        ack_offset = segment.ack - (self.isn + 1)
        if sb.fin_enqueued and ack_offset == sb.length + 1:
            ack_offset = sb.length  # the +1 acknowledges our FIN
            fin_now_acked = self._fin_sent
        else:
            fin_now_acked = False

        if ack_offset > sb.nxt:
            return False  # acks data we never sent; ignore

        newly = 0
        una = sb.una
        if ack_offset > una:
            newly = sb.ack_to(ack_offset)
            self._retries = 0
            self._on_bytes_acked(ack_offset, newly)
        elif (ack_offset == una and sb.nxt > una
              and not segment.data and not segment.fin):
            self._on_dup_ack()

        if fin_now_acked and not self._fin_acked:
            self._fin_acked = True
            self._retries = 0
            self._advance_close_state_on_fin_ack()

        if newly or fin_now_acked:
            # Anything still outstanding?  New data acked or a FIN sent
            # means the handshake is over, so only data and FIN count.
            if sb.nxt > sb.una or (self._fin_sent and not self._fin_acked):
                self._arm_rto(restart=True)
            else:
                self._cancel_rto()
        self._try_send()
        return True

    def _on_bytes_acked(self, ack_offset: int, newly: int) -> None:
        # RTT sampling (Karn: the probe is only set on fresh sends).
        probe = self._rtt_probe
        if probe is not None and ack_offset >= probe[0]:
            self._update_rtt(self.sim._now - probe[1])
            self._rtt_probe = None
        cc = self.cc
        sb = self.send_buffer
        if cc.in_recovery:
            if ack_offset >= self._recover_offset:
                cc.on_recovery_exit()
                self._dupacks = 0
            else:
                # NewReno partial ACK: retransmit the next hole at once.
                cc.on_ack(newly, sb.nxt - sb.una)
                self._retransmit_una()
                return
        else:
            self._dupacks = 0
            cc.on_ack(newly, sb.nxt - sb.una)

    def _on_dup_ack(self) -> None:
        self.stats.dup_acks_received += 1
        self._dupacks += 1
        if self.cc.in_recovery:
            self.cc.on_dup_ack()
            self._try_send()
        elif self._dupacks == DUPACK_THRESHOLD:
            self.stats.fast_retransmits += 1
            if _obs.enabled:
                _obs.metrics.inc("tcp.fast_retransmits")
            sb = self.send_buffer
            self._recover_offset = sb.nxt
            self.cc.on_fast_retransmit(sb.nxt - sb.una)
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
            self._cancel_rto()
            self._release()

    def _schedule_forget(self) -> None:
        """Approximate TIME_WAIT: linger 2 RTO then release the flow."""
        self._cancel_rto()
        # TIME_WAIT expiry is unconditional; the handle is never cancelled.
        self.sim.schedule(2 * self._rto,
                          self._finish_time_wait)  # simlint: ignore[EVT003]

    def _finish_time_wait(self) -> None:
        if self.state == State.TIME_WAIT:
            self.state = State.CLOSED
            self._release()

    def _release(self) -> None:
        """Give back the flow and drop the app.  The app usually holds
        this connection too; without that cycle a closed connection is
        freed by reference counting, not only by a full collection."""
        self.host.forget(self)
        self.app = None

    # ------------------------------------------------------------------
    # transmission
    # ------------------------------------------------------------------
    def _try_send(self) -> None:
        """Transmit as much new data as the windows allow."""
        sb = self.send_buffer
        length = sb.length
        # Nothing unsent and no FIN pending: skip the whole window scan.
        # On a one-directional transfer roughly half of all calls land
        # here (the receiving side runs _try_send once per segment), so
        # this early-out is load-bearing for bulk-transfer throughput.
        # The RFC 2861 idle check still runs when enabled: a pure ACK
        # can refresh _last_send_time before the next data send, so the
        # collapse cannot be deferred to the sending call.
        if sb.nxt == length and (self._fin_sent or not sb.fin_enqueued):
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
        mss = self.config.mss
        window = self.cc.cwnd
        if self.peer_rwnd < window:
            window = self.peer_rwnd
        # Also invariant inside the loop: nothing in it enqueues data or
        # receives segments, so stream length and the ACK fields are
        # fixed for the batch.
        sport = self._sport
        dport = self._dport
        has_peer = self.peer_isn is not None
        rcv_nxt = self._rcv_nxt() if has_peer else 0
        seq_base = self.isn + 1
        while True:
            offset = sb.nxt
            available = window - (offset - sb.una)
            unsent = length - offset
            if unsent <= 0 or available <= 0:
                break
            size = mss
            if unsent < size:
                size = unsent
            if available < size:
                size = available
            data = sb.peek_view(offset, size)
            sb.nxt = nxt = offset + size
            fin = sb.fin_enqueued and length == nxt and not self._fin_sent
            if fin:
                self._fin_sent = True
                self._note_fin_state()
            if self._rtt_probe is None:
                self._rtt_probe = (nxt, self.sim._now)
            self._transmit(Segment(sport, dport, seq_base + offset, rcv_nxt,
                                   data, False, fin, has_peer))
            self._ack_pending = False
            sent_any = True
        # A bare FIN when everything was already sent.
        if sb.fin_enqueued and not self._fin_sent and sb.nxt == length:
            self._fin_sent = True
            self._note_fin_state()
            self._transmit(Segment(sport, dport, seq_base + length, rcv_nxt,
                                   b"", False, True, has_peer))
            self._ack_pending = False
            sent_any = True
        if sent_any:
            self._arm_rto()

    def _maybe_reset_after_idle(self) -> None:
        """RFC 2861: collapse cwnd after an idle period (if configured)."""
        if not self._idle_reset_enabled:
            return
        sb = self.send_buffer
        if sb.nxt > sb.una:
            return  # not idle: data is in flight
        idle = self.sim._now - self._last_send_time
        if idle > max(self._rto, MIN_RTO):
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
        sb = self.send_buffer
        offset = sb.una
        has_peer = self.peer_isn is not None
        ack = self._rcv_nxt() if has_peer else 0
        if offset < sb.length:
            mss = self.config.mss
            size = min(mss, sb.nxt - offset) or mss
            data = sb.peek_view(offset, size)
            fin = self._fin_sent and offset + len(data) >= sb.length
            segment = Segment(self._sport, self._dport,
                              self.isn + 1 + offset, ack, data, False, fin,
                              has_peer, True)
        elif self._fin_sent and not self._fin_acked:
            segment = Segment(self._sport, self._dport,
                              self.isn + 1 + sb.length, ack, b"", False,
                              True, has_peer, True)
        else:
            return
        self._rtt_probe = None  # Karn's algorithm
        self._transmit(segment)
        self._arm_rto(restart=True)

    def _transmit(self, segment: Segment) -> None:
        """Stamp ``segment`` for the wire, show it to the host's capture
        if one is attached, and put it on the link."""
        self._last_send_time = self.sim._now
        segment.src = self._src_host
        segment.dst = self._dst_host
        segment.size_bytes = HEADER_BYTES + len(segment.data)
        capture = self.host.capture
        if capture is not None:
            capture("out", segment)
        self._link.send(segment)

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
        self._rto = min(max(self._rto, MIN_RTO), MAX_RTO)

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
        state = self.state
        handshake = state is State.SYN_SENT or state is State.SYN_RCVD
        sb = self.send_buffer
        if not (sb.nxt > sb.una or (self._fin_sent and not self._fin_acked)
                or handshake):
            return
        self.stats.timeouts += 1
        if _obs.enabled:
            _obs.metrics.inc("tcp.timeouts")
        self._retries += 1
        limit = MAX_SYN_RETRIES if handshake else MAX_DATA_RETRIES
        if self._retries > limit:
            self.abort("retry limit exceeded in %s" % state.value)
            return
        self._rto = min(self._rto * 2, MAX_RTO)
        if state is State.SYN_SENT:
            self._transmit(Segment(self._sport, self._dport, self.isn, 0,
                                   b"", True, False, False, True))
        elif state is State.SYN_RCVD:
            self._transmit(Segment(self._sport, self._dport, self.isn,
                                   self.peer_isn + 1, b"", True, False, True,
                                   True))
        else:
            self.cc.on_timeout(sb.nxt - sb.una)
            self._dupacks = 0
            self._retransmit_una()
            return  # _retransmit_una re-armed the timer
        self._arm_rto()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<Connection %s %s cwnd=%d>" % (
            self.flow, self.state.value, self.cc.cwnd)
