"""Unit tests for the inference components: threshold estimation,
fetch-time factoring, cache detection, and service comparison."""

import pytest

from repro.core.cache_detect import detect_result_caching
from repro.core.compare import compare_services, summarize_service
from repro.core.factoring import (
    DistancePoint,
    build_distance_points,
    build_sample_pairs,
    factor_fetch_time,
)
from repro.core.metrics import QueryMetrics, QueryTimeline
from repro.core.threshold import (
    estimate_tdelta_threshold,
    split_tdynamic_regimes,
)
from repro.measure.session import QuerySession
from repro.content.keywords import Keyword


# ---------------------------------------------------------------------------
# helpers: synthetic QueryMetrics without running the simulator
# ---------------------------------------------------------------------------
def make_metric(rtt, tstatic, tdynamic, vp="vp-0", fe="fe-0",
                query_id="q", service="svc"):
    """Build QueryMetrics with prescribed values via a synthetic timeline."""
    t2 = 1.0 + rtt
    timeline = QueryTimeline(
        tb=1.0 - rtt, t1=1.0, t2=t2,
        t3=t2 + 0.001,
        t4=t2 + tstatic,
        t5=t2 + tdynamic,
        te=t2 + tdynamic + 0.05,
        rtt=rtt)
    session = QuerySession(
        query_id=query_id, service=service, vp_name=vp, fe_name=fe,
        keyword=Keyword(text="x", popularity=0.5, complexity=0.5))
    return QueryMetrics(session=session, timeline=timeline)


# ---------------------------------------------------------------------------
# threshold estimation
# ---------------------------------------------------------------------------
def synthetic_tdelta(rtt, tfetch=0.200, fe_delay=0.010, k=2.0):
    return max(0.0, tfetch - fe_delay - k * rtt)


def test_threshold_recovers_model_parameters():
    rtts = [i * 0.005 for i in range(60)]           # 0..295 ms
    tdeltas = [synthetic_tdelta(r) for r in rtts]
    estimate = estimate_tdelta_threshold(rtts, tdeltas)
    # True threshold: (0.2 - 0.01) / 2 = 95 ms.
    assert estimate.threshold_rtt == pytest.approx(0.095, abs=0.025)
    assert estimate.fit is not None
    assert estimate.fit.slope == pytest.approx(-2.0, rel=0.2)
    assert estimate.zero_bin_rtt is not None


def test_threshold_with_noise_still_close():
    import random
    rng = random.Random(4)
    rtts, tdeltas = [], []
    for _ in range(400):
        r = rng.uniform(0, 0.3)
        rtts.append(r)
        tdeltas.append(max(0.0, synthetic_tdelta(r)
                           + rng.gauss(0, 0.008)))
    estimate = estimate_tdelta_threshold(rtts, tdeltas)
    assert 0.06 < estimate.threshold_rtt < 0.14


def test_threshold_never_zero_falls_back_to_max_rtt():
    rtts = [0.01, 0.02, 0.03, 0.04]
    tdeltas = [0.5, 0.5, 0.5, 0.5]  # flat, never extinguishes
    estimate = estimate_tdelta_threshold(rtts, tdeltas)
    assert estimate.threshold_rtt >= 0.03
    assert estimate.zero_bin_rtt is None


def test_threshold_input_validation():
    with pytest.raises(ValueError):
        estimate_tdelta_threshold([0.01], [0.1])
    with pytest.raises(ValueError):
        estimate_tdelta_threshold([0.01, 0.02], [0.1])


def test_tdynamic_regime_split():
    tfetch, k = 0.200, 2.0
    rtts = [i * 0.005 for i in range(60)]
    tdynamics = [max(tfetch, 0.01 + k * r) for r in rtts]
    regimes = split_tdynamic_regimes(rtts, tdynamics)
    assert regimes.flat_level == pytest.approx(tfetch, rel=0.1)
    assert regimes.linear_fit is not None
    assert regimes.linear_fit.slope == pytest.approx(k, rel=0.3)


# ---------------------------------------------------------------------------
# factoring
# ---------------------------------------------------------------------------
def test_factoring_recovers_line():
    points = [DistancePoint("fe%d" % i, 100.0 * i,
                            0.030 + 0.0001 * 100 * i, 10)
              for i in range(1, 6)]
    factoring = factor_fetch_time(points)
    assert factoring.tproc_estimate == pytest.approx(0.030, abs=0.002)
    assert factoring.slope_ms_per_mile == pytest.approx(0.1, rel=0.05)


def test_factoring_sample_fit_overrides_point_fit():
    points = [DistancePoint("a", 100, 0.5, 3),
              DistancePoint("b", 300, 0.5, 3)]
    samples = [(100, 0.04), (100, 0.06), (300, 0.06), (300, 0.08)]
    factoring = factor_fetch_time(points, sample_pairs=samples)
    assert factoring.fit.slope == pytest.approx(0.0001, rel=0.01)
    assert factoring.points == tuple(points)


def test_factoring_needs_two_points():
    with pytest.raises(ValueError):
        factor_fetch_time([DistancePoint("a", 10, 0.1, 5)])


def test_build_distance_points_filters_by_rtt_and_count():
    metrics_by_fe = {
        "fe-near": [make_metric(0.010, 0.01, 0.100) for _ in range(5)],
        "fe-far-clients": [make_metric(0.200, 0.01, 0.300)
                           for _ in range(5)],
        "fe-sparse": [make_metric(0.010, 0.01, 0.100)],
        "fe-unknown": [make_metric(0.010, 0.01, 0.100) for _ in range(5)],
    }
    distances = {"fe-near": 50.0, "fe-far-clients": 100.0,
                 "fe-sparse": 200.0}
    points = build_distance_points(metrics_by_fe, distances)
    names = {p.fe_name for p in points}
    assert names == {"fe-near"}  # others filtered
    assert points[0].tdynamic_median == pytest.approx(0.100)


def test_build_sample_pairs():
    metrics_by_fe = {
        "fe-a": [make_metric(0.010, 0.01, 0.100),
                 make_metric(0.300, 0.01, 0.500)],  # high-RTT excluded
    }
    pairs = build_sample_pairs(metrics_by_fe, {"fe-a": 120.0})
    assert pairs == [(120.0, pytest.approx(0.100))]


# ---------------------------------------------------------------------------
# cache detection
# ---------------------------------------------------------------------------
def test_cache_detection_fires_on_collapsed_distribution():
    same = [0.05 + 0.001 * i for i in range(30)]      # ~50 ms
    distinct = [0.25 + 0.002 * i for i in range(30)]  # ~280 ms
    result = detect_result_caching(same, distinct)
    assert result.caching_detected
    assert result.median_ratio < 0.3
    assert "CACHE" in result.verdict()


def test_cache_detection_negative_on_similar_distributions():
    import random
    rng = random.Random(1)
    same = [0.25 + rng.gauss(0, 0.02) for _ in range(50)]
    distinct = [0.26 + rng.gauss(0, 0.02) for _ in range(50)]
    result = detect_result_caching(same, distinct)
    assert not result.caching_detected
    assert "NOT" in result.verdict()


def test_cache_detection_effect_size_guard():
    """A significant but small difference must not read as caching."""
    same = [0.240 + 0.0001 * i for i in range(200)]
    distinct = [0.260 + 0.0001 * i for i in range(200)]
    result = detect_result_caching(same, distinct)
    assert result.p_value < 0.01          # statistically distinguishable
    assert not result.caching_detected    # but ratio ~0.92 > threshold


def test_cache_detection_needs_samples():
    with pytest.raises(ValueError):
        detect_result_caching([0.1], [0.1, 0.2, 0.3])


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------
def test_compare_services_paradox():
    # Service A: closer FEs (low RTT) but slow and variable.
    a = [make_metric(0.005, 0.02, 0.3 + 0.02 * (i % 7), service="a")
         for i in range(30)]
    # Service B: farther FEs but fast and stable.
    b = [make_metric(0.030, 0.01, 0.05 + 0.001 * (i % 3), service="b")
         for i in range(30)]
    report = compare_services({"a": a, "b": b})
    assert report.closer_frontends() == "a"
    assert report.faster_overall() == "b"
    assert report.more_variable() == "a"
    assert report.paradox_present
    rows = report.rows()
    assert len(rows) == 2
    assert rows[0]["service"] == "a"
    assert rows[0]["tdynamic_median_ms"] > rows[1]["tdynamic_median_ms"]


def test_compare_requires_two_services():
    metrics = [make_metric(0.01, 0.01, 0.1)]
    with pytest.raises(ValueError):
        compare_services({"only": metrics})
    with pytest.raises(ValueError):
        summarize_service("empty", [])


def test_service_summary_fields():
    metrics = [make_metric(0.010, 0.015, 0.100) for _ in range(10)]
    summary = summarize_service("svc", metrics)
    assert summary.rtt["median"] == pytest.approx(0.010)
    assert summary.tstatic["median"] == pytest.approx(0.015)
    assert summary.tdynamic["median"] == pytest.approx(0.100)
    assert summary.rtt_fraction_under_20ms == 1.0
