"""End-to-end inference pipeline tests: the paper's framework validated
against simulator ground truth."""

import pytest

from repro.analysis.boundary import BoundaryCalibration
from repro.analysis.clustering import classify_session, handshake_rtt
from repro.content.keywords import Keyword, KeywordCatalog
from repro.core.bounds import check_bounds, estimate_tfetch
from repro.core.metrics import (
    MetricsError,
    extract_all_calibrated,
    extract_metrics,
)
from repro.core.model import AbstractModel
from repro.measure.driver import run_queries
from repro.sim import units
from repro.testbed.scenario import Scenario, ScenarioConfig


def kw(text, popularity=0.5, complexity=0.5):
    return Keyword(text=text, popularity=popularity, complexity=complexity)


@pytest.fixture(scope="module")
def pipeline():
    """A small campaign with payloads captured, shared by the tests."""
    scenario = Scenario(ScenarioConfig(seed=11, vantage_count=6))
    plan = [(scenario.sim.now, vp, Scenario.GOOGLE,
             scenario.default_frontend(Scenario.GOOGLE, vp), kw(text))
            for vp in scenario.vantage_points
            for text in ("calibration alpha", "calibration beta",
                         "calibration gamma")]
    sessions = [s for vp_sessions in run_queries(
        scenario, plan, store_payload=True).values() for s in vp_sessions]
    assert all(s.complete for s in sessions)
    calibration = BoundaryCalibration.from_sessions(sessions)
    return scenario, sessions, calibration


def test_boundary_matches_ground_truth_static_size(pipeline):
    scenario, sessions, calibration = pipeline
    service = scenario.service(Scenario.GOOGLE)
    static_len = len(service.pages.static_content())
    # Body-level static size must match the generator's static portion
    # exactly: the dynamic part begins right after it.
    assert calibration.static_size == static_len
    # Every calibrated FE's stream boundary = head + framing + static.
    for fe_name, boundary in calibration.boundaries.items():
        assert 0 < boundary.static_end - static_len < 300, fe_name
        assert boundary.static_end <= boundary.dynamic_start


def test_extracted_timeline_is_ordered(pipeline):
    scenario, sessions, calibration = pipeline
    metrics = extract_all_calibrated(sessions, calibration)
    assert len(metrics) == len(sessions)
    for m in metrics:
        t = m.timeline
        assert t.tb <= t.t1 <= t.t2 <= t.t3 <= t.t4 <= t.t5 <= t.te
        assert m.tstatic >= 0
        assert m.tdynamic >= m.tdelta
        assert m.overall_delay >= m.tdynamic


def test_rtt_measurement_matches_path(pipeline):
    scenario, sessions, calibration = pipeline
    metrics = extract_all_calibrated(sessions, calibration)
    for m in metrics:
        assert m.rtt == pytest.approx(m.session.path_rtt, rel=0.15)


def test_fetch_bounds_hold_against_ground_truth(pipeline):
    """The paper's Eq. 1, checked sample by sample against the true
    FE-BE fetch times recorded inside the simulated front-ends."""
    scenario, sessions, calibration = pipeline
    metrics = extract_all_calibrated(sessions, calibration)
    fetch_log = scenario.service(Scenario.GOOGLE).merged_fetch_log()
    report = check_bounds(metrics, fetch_log)
    assert report.n == len(metrics)
    assert report.both_fraction == 1.0
    assert report.mean_gap > 0


def test_tfetch_point_estimate_between_bounds(pipeline):
    scenario, sessions, calibration = pipeline
    metrics = extract_all_calibrated(sessions, calibration)
    for m in metrics:
        estimate = estimate_tfetch(m, weight=0.5)
        assert m.tdelta <= estimate <= m.tdynamic
    with pytest.raises(ValueError):
        estimate_tfetch(metrics[0], weight=1.5)


def test_clustering_identifies_bursts(pipeline):
    scenario, sessions, calibration = pipeline
    session = sessions[0]
    clusters = classify_session(session)
    assert clusters.handshake.has_handshake
    assert len(clusters.bursts) >= 1
    total_payload = sum(b.payload_bytes for b in clusters.bursts)
    assert total_payload >= session.response_size
    assert handshake_rtt(session) > 0


def test_metrics_error_on_bad_boundary(pipeline):
    scenario, sessions, calibration = pipeline
    with pytest.raises(MetricsError):
        extract_metrics(sessions[0], 0)
    with pytest.raises(MetricsError):
        extract_metrics(sessions[0], 10**9)


def test_abstract_model_predictions():
    model = AbstractModel(fe_delay=0.010, tfetch=0.200, static_windows=2)
    # Below the threshold: Tdynamic constant, Tdelta decreasing.
    assert model.predict_tdynamic(0.010) == pytest.approx(0.200)
    assert model.predict_tdelta(0.010) == pytest.approx(0.170)
    assert model.predict_tdelta(0.050) == pytest.approx(0.090)
    threshold = model.rtt_threshold()
    assert threshold == pytest.approx(0.095)
    # Above the threshold: Tdelta zero, Tdynamic linear in RTT.
    assert model.predict_tdelta(0.150) == 0.0
    assert model.predict_tdynamic(0.150) == pytest.approx(0.310)
    assert AbstractModel.bounds_hold(0.1, 0.15, 0.2)
    assert not AbstractModel.bounds_hold(0.2, 0.15, 0.1)
    assert AbstractModel.fetch_decomposition(0.2, 0.02, 3) == \
        pytest.approx(0.26)


def test_abstract_model_validation():
    with pytest.raises(ValueError):
        AbstractModel(fe_delay=-1, tfetch=0.1)
    with pytest.raises(ValueError):
        AbstractModel(fe_delay=0.01, tfetch=0.1, static_windows=-1)
    with pytest.raises(ValueError):
        AbstractModel.fetch_decomposition(-0.1, 0.01, 1)


def test_simulation_agrees_with_abstract_model(pipeline):
    """Quantitative check: measured Tdynamic within the model envelope."""
    scenario, sessions, calibration = pipeline
    metrics = extract_all_calibrated(sessions, calibration)
    fetch_log = scenario.service(Scenario.GOOGLE).merged_fetch_log()
    for m in metrics:
        record = fetch_log[m.session.query_id]
        model = AbstractModel(fe_delay=0.0, tfetch=record.tfetch,
                              static_windows=0)
        # Tdynamic can never undercut the true fetch time.
        assert m.tdynamic >= model.predict_tdynamic(0.0) - units.ms(1)
