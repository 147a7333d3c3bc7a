"""Tests for the what-if placement analysis."""

import pytest

from repro.core.whatif import (
    WhatIfError,
    advise_placement,
    fit_model,
)
from repro.sim import units

from .test_core_inference import make_metric


def synthetic_population(tfetch=0.200, fe_delay=0.010, k=2,
                         rtts=None):
    """Metrics following the abstract model exactly."""
    rtts = rtts or [0.005 * i for i in range(1, 41)]
    metrics = []
    for rtt in rtts:
        tstatic = fe_delay + k * rtt
        tdynamic = max(tfetch, tstatic)
        metrics.append(make_metric(rtt, tstatic, tdynamic))
    return metrics


def test_fit_recovers_model_parameters():
    fitted = fit_model(synthetic_population())
    assert fitted.model.static_windows == 2
    assert fitted.model.fe_delay == pytest.approx(0.010, abs=0.003)
    assert fitted.model.tfetch == pytest.approx(0.200, rel=0.1)
    assert fitted.static_fit_r2 is not None
    assert fitted.static_fit_r2 > 0.99
    assert fitted.samples == 40


def test_fit_requires_samples():
    with pytest.raises(WhatIfError):
        fit_model(synthetic_population()[:3])


def test_fit_without_rtt_spread_falls_back():
    metrics = synthetic_population(rtts=[0.020] * 10)
    fitted = fit_model(metrics)
    assert fitted.static_fit_r2 is None
    assert fitted.model.static_windows == 1
    # Tfetch still recovered from the low-RTT plateau.
    assert fitted.model.tfetch == pytest.approx(0.200, rel=0.1)


def test_placement_gain_respects_threshold():
    fitted = fit_model(synthetic_population())
    threshold = fitted.placement_threshold()
    # True threshold = (0.2 - 0.01) / 2 = 95 ms.
    assert threshold == pytest.approx(0.095, abs=0.02)
    # Below the threshold, moving closer gains nothing.
    assert fitted.placement_gain(threshold * 0.8, threshold * 0.4) == 0.0
    # Above it, it gains ~k * delta RTT.
    gain = fitted.placement_gain(0.200, 0.150)
    assert gain == pytest.approx(2 * 0.050, rel=0.2)


def test_faster_backend_gain_only_when_fetch_bound():
    fitted = fit_model(synthetic_population())
    # Fetch-bound client: halving Tproc helps substantially.
    gain_low = fitted.faster_backend_gain(0.010, tproc_speedup=2.0)
    assert gain_low > units.ms(50)
    # Delivery-bound client (far above the threshold): no gain.
    gain_high = fitted.faster_backend_gain(0.300, tproc_speedup=2.0)
    assert gain_high == 0.0
    with pytest.raises(ValueError):
        fitted.faster_backend_gain(0.01, tproc_speedup=0)


def test_dominant_factor_switches_at_threshold():
    fitted = fit_model(synthetic_population())
    assert fitted.dominant_factor(0.010) == "fetch"
    assert fitted.dominant_factor(0.200) == "delivery"


def test_advice_fetch_bound_population():
    # All clients well below the threshold.
    metrics = synthetic_population(rtts=[0.005 * i
                                         for i in range(1, 11)])
    advice = advise_placement(metrics)
    assert advice.fraction_fetch_bound == 1.0
    assert "optimize the back end" in advice.recommendation
    assert advice.tfetch == pytest.approx(0.200, rel=0.1)


def test_advice_delivery_bound_population():
    # All clients far beyond the threshold (Tdelta == 0 everywhere).
    metrics = synthetic_population(rtts=[0.150 + 0.01 * i
                                         for i in range(12)])
    advice = advise_placement(metrics)
    assert advice.fraction_fetch_bound == 0.0
    assert "optimize placement" in advice.recommendation


def test_whatif_on_simulated_campaign():
    """End to end: fit the model on real simulated measurements and
    check the advice against the known service characteristics."""
    from repro.content.keywords import Keyword
    from repro.core.metrics import extract_all_calibrated
    from repro.measure.driver import run_dataset_b
    from repro.experiments.common import calibrate_service
    from repro.testbed.scenario import Scenario, ScenarioConfig

    scenario = Scenario(ScenarioConfig(seed=33, vantage_count=16))
    service = scenario.service(Scenario.BING)
    frontend = service.frontends[0]
    calibration = calibrate_service(scenario, Scenario.BING, [frontend])
    dataset = run_dataset_b(
        scenario, Scenario.BING, frontend,
        Keyword(text="whatif probe", popularity=0.5, complexity=0.5),
        repeats=4, interval=1.0)
    metrics = extract_all_calibrated(dataset.sessions, calibration)
    fitted = fit_model(metrics)
    # The bing-like service's fetch time is a few hundred ms.
    assert 0.15 < fitted.model.tfetch < 0.6
    # Its placement threshold lands in the paper's 100-200 ms band
    # (allow slack for the small sample).
    assert 0.08 < fitted.placement_threshold() < 0.3
    advice = advise_placement(metrics)
    assert advice.recommendation
