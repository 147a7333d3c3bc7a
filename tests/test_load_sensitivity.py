"""Tests for the FE load model and the load-sensitivity experiment."""

import pytest

from repro.experiments.common import ExperimentScale
from repro.experiments.load_sensitivity import (
    LoadPoint,
    LoadSensitivityResult,
    render_load_sensitivity,
    run_load_sensitivity,
)
from repro.services.load import FrontEndLoadModel
from repro.sim import units
from repro.sim.randomness import RandomStreams


# ---------------------------------------------------------------------------
# the concurrency term of the load model
# ---------------------------------------------------------------------------
def test_concurrency_adds_linear_delay():
    model = FrontEndLoadModel(median_delay=0.010, sigma=0.0,
                              per_concurrent_delay=0.002)
    streams = RandomStreams(0)
    base = model.draw(streams, "s", concurrency=1)
    loaded = model.draw(streams, "s", concurrency=6)
    assert loaded - base == pytest.approx(0.002 * 5)


def test_concurrency_default_is_free():
    model = FrontEndLoadModel(median_delay=0.010, sigma=0.0)
    streams = RandomStreams(0)
    assert model.draw(streams, "s", concurrency=1) == \
        model.draw(streams, "s", concurrency=50)


def test_per_concurrent_validation():
    with pytest.raises(ValueError):
        FrontEndLoadModel(per_concurrent_delay=-0.001)


# ---------------------------------------------------------------------------
# FE concurrency accounting
# ---------------------------------------------------------------------------
def test_fe_tracks_and_releases_concurrency():
    from repro.content.keywords import Keyword
    from repro.measure.driver import run_queries
    from repro.testbed.scenario import Scenario, ScenarioConfig

    scenario = Scenario(ScenarioConfig(seed=40, vantage_count=6))
    vp = scenario.vantage_points[0]
    frontend, _ = scenario.connect_default(Scenario.BING, vp)
    keyword = Keyword(text="concurrency probe", popularity=0.5,
                      complexity=0.5)
    run_queries(scenario, [(scenario.sim.now, vp, Scenario.BING, frontend,
                            keyword)] * 3)
    assert frontend.peak_concurrency >= 2     # overlapped in flight
    assert frontend.active_requests == 0      # all released at the end


# ---------------------------------------------------------------------------
# the experiment
# ---------------------------------------------------------------------------
def test_load_sensitivity_shapes():
    result = run_load_sensitivity(
        ExperimentScale.tiny(seed=1),
        background_levels=(0, 12), probe_queries=18)
    assert len(result.points) == 2
    assert result.points[1].peak_concurrency > \
        result.points[0].peak_concurrency
    assert result.tstatic_inflation() > units.ms(5)
    text = render_load_sensitivity(result)
    assert "Tstatic inflation" in text


def test_load_result_helpers():
    result = LoadSensitivityResult(service="svc", fe_name="fe", points=[
        LoadPoint(0, 2, 0.020, 0.030, 0.25),
        LoadPoint(10, 9, 0.045, 0.090, 0.30)])
    assert result.tstatic_inflation() == pytest.approx(0.025)
    assert result.variability_grows()
