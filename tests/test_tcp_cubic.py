"""Tests for the CUBIC congestion controller."""

import pytest

from repro.net.address import Endpoint
from repro.sim import units
from repro.tcp.config import TcpConfig
from repro.tcp.congestion import CubicController

from .conftest import make_world
from .helpers import CollectorApp, RespondApp, make_payload

MSS = 1000


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def make_cubic(iw=3, ssthresh=1 << 30):
    clock = FakeClock()
    return CubicController(MSS, iw * MSS, ssthresh, clock), clock


# ---------------------------------------------------------------------------
# unit behaviour
# ---------------------------------------------------------------------------
def test_slow_start_identical_to_reno():
    cc, clock = make_cubic(iw=2)
    assert cc.in_slow_start
    before = cc.cwnd
    cc.on_ack(MSS, before)
    assert cc.cwnd == before + MSS


def test_fast_retransmit_uses_beta():
    cc, clock = make_cubic(iw=20)
    flight = 20 * MSS
    cc.on_fast_retransmit(flight)
    assert cc.ssthresh == int(20 * MSS * CubicController.BETA)
    assert cc.in_recovery
    cc.on_recovery_exit()
    assert cc.cwnd == cc.ssthresh
    assert not cc.in_recovery


def test_window_regrows_toward_wmax_at_k():
    """After a loss, W(t) reaches the old maximum at t ~ K."""
    cc, clock = make_cubic(iw=40, ssthresh=40 * MSS)
    cc.on_fast_retransmit(40 * MSS)
    cc.on_recovery_exit()
    w_max = cc._w_max
    k = cc._k
    assert k > 0
    # Advance the clock to K and feed acks: the cubic target is ~Wmax
    # (plus a little Reno-floor creep once the target is reached).
    clock.now = k
    for _ in range(200):
        cc.on_ack(MSS, cc.cwnd)
    assert w_max <= cc.cwnd / MSS <= w_max * 1.15


def test_growth_is_concave_then_convex():
    cc, clock = make_cubic(iw=40, ssthresh=40 * MSS)
    cc.on_fast_retransmit(40 * MSS)
    cc.on_recovery_exit()
    k = cc._k
    samples = []
    for t in (0.25 * k, 0.5 * k, 0.75 * k, k, 1.5 * k, 2 * k):
        clock.now = t
        samples.append(cc._cubic_window_segments())
    # Concave before K: increments shrink; convex after: they grow.
    d1 = samples[1] - samples[0]
    d2 = samples[2] - samples[1]
    d3 = samples[3] - samples[2]
    assert d1 > d2 > d3
    assert samples[5] - samples[4] > samples[4] - samples[3]


def test_timeout_resets_to_one_segment():
    cc, clock = make_cubic(iw=30, ssthresh=30 * MSS)
    cc.on_timeout(30 * MSS)
    assert cc.cwnd == MSS
    assert cc.ssthresh == int(30 * MSS * CubicController.BETA)


def test_fast_convergence_lowers_wmax():
    cc, clock = make_cubic(iw=40, ssthresh=40 * MSS)
    cc.on_fast_retransmit(40 * MSS)
    cc.on_recovery_exit()
    first_wmax = cc._w_max
    # A second loss below the previous max triggers fast convergence.
    cc.on_fast_retransmit(cc.cwnd)
    assert cc._w_max < first_wmax


def test_clock_must_be_callable():
    with pytest.raises(TypeError):
        CubicController(MSS, MSS, MSS, clock="now")


# ---------------------------------------------------------------------------
# config / integration
# ---------------------------------------------------------------------------
def test_config_selects_cubic():
    config = TcpConfig(congestion="cubic")
    world = make_world(rtt=units.ms(40), client_config=config)
    world.server.listen(80, lambda: RespondApp(b"ok", close_after=True))
    client = CollectorApp(request=b"G")
    conn = world.client.connect(Endpoint("server", 80), client)
    assert isinstance(conn.cc, CubicController)
    world.sim.run()
    assert bytes(client.received) == b"ok"


def test_config_rejects_unknown_algorithm():
    with pytest.raises(ValueError):
        TcpConfig(congestion="vegas")


def test_cubic_transfer_reliable_under_loss():
    config = TcpConfig(congestion="cubic")
    world = make_world(rtt=units.ms(30), loss_rate=0.02, seed=13,
                       server_config=config, client_config=config)
    payload = make_payload(150_000, tag=b"C")
    world.server.listen(80, lambda: RespondApp(payload, close_after=True))
    client = CollectorApp(request=b"G")
    world.client.connect(Endpoint("server", 80), client)
    world.sim.run(until=300.0)
    assert bytes(client.received) == payload


def test_cubic_recovers_faster_than_reno_after_loss():
    """On a long transfer with one mid-stream loss, CUBIC's concave
    regrowth toward W_max beats Reno's linear climb."""
    durations = {}
    for algorithm in ("reno", "cubic"):
        config = TcpConfig(congestion=algorithm)
        world = make_world(rtt=units.ms(80), bandwidth=units.gbps(1),
                           server_config=config)
        payload = make_payload(600_000)
        world.server.listen(80, lambda: RespondApp(payload,
                                                   close_after=True))
        client = CollectorApp(request=b"G")
        link = world.topology.node("server").links["client"]
        link.fault_filter = lambda segment, index: index == 40
        world.client.connect(Endpoint("server", 80), client)
        world.sim.run(until=300.0)
        assert bytes(client.received) == payload
        durations[algorithm] = client.data_times[-1]
    assert durations["cubic"] <= durations["reno"] + 1e-9
