"""Resolve a query's parameters and predict its full session record.

The predictor is the bridge between a live :class:`Scenario` and the
closed-form model: it reads the path's link parameters straight off the
topology (the same objects the packet engine uses), computes the exact
request/response byte counts with the real HTTP encoders, reproduces
the query's keyed service draws with a shadow stream, runs
:func:`~repro.sim.analytic.model.predict_session`, and packages the
result as a :class:`~repro.sim.replay.timeline.RecordedTimeline` — the
same replayable record the session-replay cache uses, so the session
executor materializes both through one method
(:meth:`repro.sim.executor.SessionExecutor.materialize`).

Analytic admission layers on top of the replay path predicates: beyond
loss/jitter/fault-free dedicated links, the model additionally requires
the default ACK discipline (no delayed ACK, no Nagle, no idle reset),
slow start that never exits (the "infinite" default ssthresh — under
which Reno and Cubic are byte-for-byte identical), a pinned-window BE
leg, and the FE static cache enabled.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.http.message import HttpRequest, HttpResponse, build_query_path
from repro.sim.analytic.model import (
    SessionModel,
    SessionParams,
    predict_session,
    stream_boundaries,
)
from repro.sim.replay.fingerprint import predicted_service_draws
from repro.sim.replay.timeline import RecordedTimeline
from repro.tcp.segment import HEADER_BYTES

#: Effectively-infinite initial ssthresh: below this the sender could
#: leave slow start mid-session, where Reno and Cubic genuinely differ
#: and the byte-counting ramp no longer applies.
_SSTHRESH_FLOOR = 1 << 30

#: Sessions this close to the time origin may still overlap the FE-BE
#: pool handshakes' link occupancy; margin dominates the serialization
#: tail of any realistic pool size.
_WARMUP_MARGIN = 0.005  # simlint: unit[s]


class Prediction:
    """One predicted session: the replayable record plus ground truth
    stream boundaries for landmark extraction."""

    __slots__ = ("timeline", "static_end", "dynamic_start")

    def __init__(self, timeline: RecordedTimeline, static_end: int,
                 dynamic_start: int):
        self.timeline = timeline
        self.static_end = static_end  # simlint: unit[bytes]
        self.dynamic_start = dynamic_start  # simlint: unit[bytes]


class _Path:
    """Resolved per-``(service, FE, VP)`` model inputs."""

    __slots__ = ("cf_delay", "up_bandwidth", "down_bandwidth",
                 "be_delay", "be_up_bandwidth", "be_down_bandwidth",
                 "mss", "initial_cwnd", "peer_rwnd",
                 "be_mss", "be_window", "be_peer_rwnd",
                 "client_mss", "client_cwnd",
                 "pool_window", "fe_head_len", "static_len",
                 "backend_host", "warmup_horizon")


def analytic_path_reason(scenario, service_name: str,
                         frontend) -> Optional[str]:
    """Why the analytic model cannot cover this triple's sessions.

    Evaluated *in addition to*
    :func:`repro.sim.replay.admission.path_bypass_reason`; both verdicts
    are constant per triple and cached by the session executor.
    """
    profile = scenario.service(service_name).profile
    backend_tcp = profile.backend_tcp
    for tcp in (scenario.config.client_tcp, profile.edge_tcp):
        if tcp.delayed_ack or tcp.nagle or tcp.slow_start_after_idle:
            return "tcp-knobs"
        if tcp.fixed_window_bytes is not None:
            return "tcp-knobs"
        if tcp.initial_ssthresh_bytes < _SSTHRESH_FLOOR:
            return "tcp-knobs"
    if backend_tcp.fixed_window_bytes is None \
            or backend_tcp.delayed_ack or backend_tcp.nagle:
        return "tcp-knobs"
    if not frontend.cache_static:
        # Full-page relay (no FE cache) has a different write schedule.
        return "no-fe-cache"
    return None


class AnalyticPredictor:
    """Per-campaign analytic session prediction with memoization.

    With deterministic service profiles the keyed draws collapse to
    constants, so a whole campaign stratum shares one micro-model run;
    the cache keys on everything the timeline depends on (triple,
    keyword, request length, draws) and therefore stays exact when
    sigmas are nonzero too — distinct draws simply miss.
    """

    def __init__(self, scenario):
        self.scenario = scenario
        self._paths: Dict[tuple, _Path] = {}
        self._cache: Dict[tuple, Prediction] = {}

    # ------------------------------------------------------------------
    def path(self, service_name: str, frontend, vp_name: str) -> _Path:
        key = (service_name, frontend.node.name, vp_name)
        path = self._paths.get(key)
        if path is None:
            path = self._resolve(service_name, frontend, vp_name)
            self._paths[key] = path
        return path

    def _resolve(self, service_name: str, frontend,
                 vp_name: str) -> _Path:
        scenario = self.scenario
        deployment = scenario.service(service_name)
        profile = deployment.profile
        fe_name = frontend.node.name
        be_name = deployment.backend_for_frontend(frontend).node.name
        topology = scenario.topology
        up = topology.node(vp_name).links[fe_name]
        down = topology.node(fe_name).links[vp_name]
        be_up = topology.node(fe_name).links[be_name]
        be_down = topology.node(be_name).links[fe_name]

        client = scenario.config.client_tcp
        edge = profile.edge_tcp
        backend_tcp = profile.backend_tcp
        path = _Path()
        path.cf_delay = up.delay
        path.up_bandwidth = up.bandwidth
        path.down_bandwidth = down.bandwidth
        path.be_delay = be_up.delay
        path.be_up_bandwidth = be_up.bandwidth
        path.be_down_bandwidth = be_down.bandwidth
        path.mss = edge.mss
        path.initial_cwnd = edge.initial_cwnd_bytes
        path.peer_rwnd = client.receive_window_bytes
        path.be_mss = backend_tcp.mss
        path.be_window = backend_tcp.fixed_window_bytes
        path.be_peer_rwnd = backend_tcp.receive_window_bytes
        path.client_mss = client.mss
        path.client_cwnd = client.initial_cwnd_bytes
        path.pool_window = profile.backend_window_bytes
        path.backend_host = frontend.backend_endpoint.host
        path.static_len = len(frontend.pages.static_content())
        # The FE's chunked response head, exactly as _write_static sends
        # it (header insertion order is preserved by the encoder).
        head = HttpResponse(status=200, headers={
            "X-Served-By": fe_name,
            "X-Service": service_name,
        })
        head.headers.setdefault("Transfer-Encoding", "chunked")
        path.fe_head_len = len(head.encode_head())
        # Submissions earlier than this may find the FE-BE links still
        # busy with the t=0 pool handshakes.
        path.warmup_horizon = 2.0 * be_up.delay + _WARMUP_MARGIN
        return path

    # ------------------------------------------------------------------
    def predict(self, service_name: str, frontend, vp_name: str,
                keyword, query_id: str,
                guard: float) -> Tuple[Optional[Prediction],
                                       Optional[str]]:
        """Predict one session; ``(prediction, None)`` on success or
        ``(None, reason)`` when this query falls outside the model."""
        path = self.path(service_name, frontend, vp_name)
        request_path = build_query_path(
            "/search", {"q": keyword.text, "id": query_id})
        request_len = len(HttpRequest(
            path=request_path,
            headers={"Host": service_name}).encode())
        be_request_len = len(HttpRequest(
            path=request_path,
            headers={"Host": path.backend_host}).encode())
        if request_len > path.client_mss \
                or request_len > path.client_cwnd:
            # A multi-segment GET changes the ACK-of-request pattern.
            return None, "request-size"
        if be_request_len > path.be_mss \
                or be_request_len > path.pool_window:
            return None, "request-size"

        load_delay, tproc = predicted_service_draws(
            self.scenario, service_name, frontend, keyword, query_id)
        key = (service_name, frontend.node.name, vp_name, keyword,
               request_len, be_request_len, load_delay, tproc)
        prediction = self._cache.get(key)
        if prediction is None:
            prediction = self._build(path, service_name, keyword,
                                     query_id, request_len,
                                     be_request_len, load_delay, tproc,
                                     guard)
            self._cache[key] = prediction
        return prediction, None

    # ------------------------------------------------------------------
    def _build(self, path: _Path, service_name: str, keyword,
               query_id: str, request_len: int, be_request_len: int,
               load_delay: float, tproc: float,
               guard: float) -> Prediction:
        dynamic_len = self._dynamic_len(service_name, keyword)
        be_head = HttpResponse(status=200, headers={
            "X-Service": service_name,
            "X-Query-Id": query_id,
        })
        be_head.headers.setdefault("Content-Length", str(dynamic_len))
        params = SessionParams(
            cf_delay=path.cf_delay,
            up_bandwidth=path.up_bandwidth,
            down_bandwidth=path.down_bandwidth,
            be_delay=path.be_delay,
            be_up_bandwidth=path.be_up_bandwidth,
            be_down_bandwidth=path.be_down_bandwidth,
            request_len=request_len,
            fe_head_len=path.fe_head_len,
            static_len=path.static_len,
            dynamic_len=dynamic_len,
            be_request_len=be_request_len,
            be_head_len=len(be_head.encode_head()),
            mss=path.mss,
            initial_cwnd=path.initial_cwnd,
            peer_rwnd=path.peer_rwnd,
            be_mss=path.be_mss,
            be_window=path.be_window,
            be_peer_rwnd=path.be_peer_rwnd,
            fe_delay=load_delay,
            tproc=tproc)
        model = predict_session(params)
        timeline = RecordedTimeline(
            started_at=0.0,
            duration=model.completed_at,
            guard=guard,
            response_size=model.response_size,
            events=_normalized_events(model, request_len),
            forward_offset=model.get_arrival,
            fetch_completed_offset=model.fetch_completed,
            fetch_size=dynamic_len,
            keyword_text=keyword.text,
            tproc=tproc,
            be_arrival_offset=model.be_arrival,
            be_completed_offset=model.be_completed,
            be_response_size=dynamic_len)
        static_end, dynamic_start = stream_boundaries(
            path.fe_head_len, path.static_len, dynamic_len)
        return Prediction(timeline, static_end, dynamic_start)

    def _dynamic_len(self, service_name: str, keyword) -> int:
        """Exact dynamic-portion length without generating the bytes.

        The page generator pads or trims to the profile's target size,
        so the length is a pure function of the keyword (asserted by
        the test suite).
        """
        deployment = self.scenario.service(service_name)
        return deployment.pages.profile.dynamic_size(keyword)


def _normalized_events(model: SessionModel, request_len: int) -> list:
    """The session's client-side capture as normalized replay events.

    Matches, bit for bit, what
    :func:`repro.sim.replay.timeline.record_timeline` produces from a
    packet-simulated trace of the same session: SYN, SYN-ACK, GET plus
    the handshake ACK queued behind it, the FE's ACK of the GET, then
    each data segment's arrival followed by the client's pure ACK — the
    final data segment excepted, whose ACK departs on the post-harvest
    FIN.
    """
    header = HEADER_BYTES
    req_end = 1 + request_len
    events = [
        (0.0, True, header, 0, 0, 0, True, False, False, False),
        (model.synack_at, False, header, 0, 0, 1, True, False, True,
         False),
        (model.synack_at, True, header + request_len, request_len, 1, 1,
         False, False, True, False),
        (model.synack_at, True, header, 0, req_end, 1, False, False,
         True, False),
        (model.get_ack_at, False, header, 0, 1, req_end, False, False,
         True, False),
    ]
    acks = model.acks
    for index, segment in enumerate(model.segments):
        events.append((segment.arrived_at, False,
                       header + segment.size, segment.size,
                       1 + segment.offset, req_end, False, False, True,
                       False))
        if index < len(acks):
            ack = acks[index]
            events.append((ack.sent_at, True, header, 0, req_end,
                           1 + ack.acked_through, False, False, True,
                           False))
    return events
