"""Integration tests: every figure runner must reproduce the paper's
qualitative shape at reduced (tiny) scale."""

import pytest

from repro.experiments import (
    ExperimentScale,
    run_cache_ablation,
    run_caching_experiment,
    run_dataset_a_experiment,
    run_fig3,
    run_fig4,
    run_fig5,
    run_fig6,
    run_fig7,
    run_fig8,
    run_fig9,
    run_interactive,
    run_loss_ablation,
    run_placement_ablation,
    run_split_tcp_ablation,
    run_validation,
)
from repro.sim import units
from repro.testbed.scenario import Scenario

SCALE = ExperimentScale.tiny(seed=1)


# ---------------------------------------------------------------------------
# Figure 3
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def fig3():
    return run_fig3(SCALE)


def test_fig3_tdynamic_separates_by_keyword(fig3):
    medians = fig3.tdynamic_medians()
    assert len(medians) == 4
    spread = max(medians.values()) - min(medians.values())
    assert spread > units.ms(100)


def test_fig3_tstatic_insensitive_to_keyword(fig3):
    medians = fig3.tstatic_medians()
    spread = max(medians.values()) - min(medians.values())
    assert spread < units.ms(30)
    assert fig3.separation_ratio() > 5


def test_fig3_complex_keywords_cost_more(fig3):
    by_complexity = sorted(fig3.series.values(),
                           key=lambda s: s.keyword.complexity)
    dynamic_medians = [sorted(s.tdynamic)[len(s.tdynamic) // 2]
                       for s in by_complexity]
    assert dynamic_medians[-1] > dynamic_medians[0]


# ---------------------------------------------------------------------------
# Figure 4
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def fig4():
    return run_fig4(SCALE)


def test_fig4_gap_shrinks_and_merges(fig4):
    assert fig4.gap_shrinks_with_rtt()
    # Clearly separated at the smallest RTT...
    assert fig4.rows[0].gap > units.ms(100)
    # ... and lumped together at the largest (paper: Bing threshold
    # 100-200 ms, so both 160 ms and 243 ms rows are merged).
    assert fig4.rows[-1].merged


def test_fig4_small_rtt_shows_distinct_bursts(fig4):
    row = fig4.rows[0]
    assert len(row.display_bursts) >= 2
    assert not row.merged


def test_fig4_timelines_start_with_syn(fig4):
    for row in fig4.rows:
        offsets = row.event_offsets()
        assert offsets[0][1] == "out"
        assert offsets[0][0] == pytest.approx(0.0, abs=1e-9)


# ---------------------------------------------------------------------------
# Figure 5
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def fig5():
    return run_fig5(SCALE)


def test_fig5_thresholds_in_paper_bands(fig5):
    thresholds = fig5.thresholds_ms()
    # Paper: Google 50-100 ms, Bing 100-200 ms (we allow band slack).
    assert 30 <= thresholds[Scenario.GOOGLE] <= 110
    assert 100 <= thresholds[Scenario.BING] <= 260
    assert thresholds[Scenario.BING] > thresholds[Scenario.GOOGLE]


def test_fig5_tdynamic_flat_then_linear(fig5):
    for curves in fig5.curves.values():
        binned = curves.binned("tdynamic")
        assert len(binned) >= 3
        low = binned[0][1]
        high = binned[-1][1]
        # The high-RTT end exceeds the fetch-bound plateau.
        assert high > low
        assert curves.regimes is not None


def test_fig5_tdelta_decreasing(fig5):
    for curves in fig5.curves.values():
        binned = curves.binned("tdelta")
        # First bin strictly positive, last bin ~zero.
        assert binned[0][1] > units.ms(10)
        assert binned[-1][1] < units.ms(10)


def test_fig5_bing_slower_than_google(fig5):
    google = dict(fig5.curves[Scenario.GOOGLE].binned("tdynamic"))
    bing = dict(fig5.curves[Scenario.BING].binned("tdynamic"))
    shared = sorted(set(google) & set(bing))
    assert shared
    assert all(bing[b] > google[b] for b in shared)


# ---------------------------------------------------------------------------
# Figures 6-8 (one Dataset-A campaign)
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def dataset_a():
    return run_dataset_a_experiment(SCALE)


def test_fig6_bing_fes_closer(dataset_a):
    result = run_fig6(experiment=dataset_a)
    assert result.under_20ms[Scenario.BING] > \
        result.under_20ms[Scenario.GOOGLE]
    assert result.under_20ms[Scenario.BING] >= 0.6
    assert 0.3 <= result.under_20ms[Scenario.GOOGLE] <= 0.9
    for cdf in result.cdfs.values():
        fractions = [f for _, f in cdf]
        assert fractions == sorted(fractions)
        assert fractions[-1] == pytest.approx(1.0)


def test_fig7_paradox(dataset_a):
    result = run_fig7(experiment=dataset_a)
    comparison = result.comparison
    assert comparison.closer_frontends() == Scenario.BING
    assert comparison.faster_overall() == Scenario.GOOGLE
    assert comparison.paradox_present
    # Bing both slower and more variable in Tdynamic.
    rows = {r["service"]: r for r in comparison.rows()}
    assert rows[Scenario.BING]["tdynamic_median_ms"] > \
        rows[Scenario.GOOGLE]["tdynamic_median_ms"]
    assert rows[Scenario.BING]["tdynamic_std_ms"] > \
        rows[Scenario.GOOGLE]["tdynamic_std_ms"]


def test_fig7_scatter_has_both_services(dataset_a):
    result = run_fig7(experiment=dataset_a)
    for service in (Scenario.BING, Scenario.GOOGLE):
        assert len(result.tstatic[service]) > 10
        assert len(result.tdynamic[service]) > 10


def test_fig8_overall_delays(dataset_a):
    result = run_fig8(experiment=dataset_a)
    assert result.comparison.more_variable() == Scenario.BING
    bing_boxes = dict(result.boxes[Scenario.BING])
    google_boxes = dict(result.boxes[Scenario.GOOGLE])
    shared_nodes = set(bing_boxes) & set(google_boxes)
    assert len(shared_nodes) >= 10
    slower_on_bing = sum(
        1 for node in shared_nodes
        if bing_boxes[node].median > google_boxes[node].median)
    assert slower_on_bing / len(shared_nodes) > 0.8


# ---------------------------------------------------------------------------
# Figure 9
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def fig9():
    return run_fig9(SCALE)


def test_fig9_intercepts_match_paper(fig9):
    bing = fig9.panels[Scenario.BING]
    google = fig9.panels[Scenario.GOOGLE]
    # Paper: ~260 ms vs ~34 ms.
    assert 180 <= bing.intercept_ms <= 340
    assert 20 <= google.intercept_ms <= 60
    assert 4 <= fig9.intercept_ratio() <= 14


def test_fig9_slopes_positive_and_similar(fig9):
    for panel in fig9.panels.values():
        assert panel.slope_ms_per_mile > 0.02
        assert panel.slope_ms_per_mile < 0.2
    # The small run's slopes agree within 60%, not the 50% of
    # slopes_similar.
    low, high = sorted(panel.slope_ms_per_mile
                       for panel in fig9.panels.values())
    assert (high - low) / high <= 0.6


def test_fig9_has_multiple_fe_points(fig9):
    for panel in fig9.panels.values():
        assert len(panel.factoring.points) >= 2


# ---------------------------------------------------------------------------
# Section 3 caching
# ---------------------------------------------------------------------------
def test_caching_not_detected_on_real_deployment():
    result = run_caching_experiment(SCALE)
    assert not result.detection.caching_detected
    assert result.detector_correct


def test_caching_detected_on_counterfactual():
    result = run_caching_experiment(SCALE, fe_caches_results=True)
    assert result.detection.caching_detected
    assert result.detector_correct
    assert result.detection.median_ratio < 0.6


# ---------------------------------------------------------------------------
# Eq. 1 validation
# ---------------------------------------------------------------------------
def test_bounds_validation_holds():
    result = run_validation(SCALE)
    assert result.bounds.n > 50
    assert result.bounds.both_fraction == 1.0
    # At low RTT, Tdynamic is a tight Tfetch proxy (paper Sec. 5).
    assert result.proxy_error_below_rtt(units.ms(40)) < 0.10


# ---------------------------------------------------------------------------
# Section 6 interactive search
# ---------------------------------------------------------------------------
def test_interactive_fits_model():
    result = run_interactive(SCALE)
    assert result.queries >= 15
    assert result.distinct_connections() == result.queries
    assert result.bounds.both_fraction == 1.0
    # Correlated follow-up queries do not get slower.
    assert result.tdynamic_trend() <= units.ms(10)


# ---------------------------------------------------------------------------
# Ablations
# ---------------------------------------------------------------------------
def test_split_tcp_wins_for_remote_clients():
    result = run_split_tcp_ablation(SCALE)
    assert result.speedup > 1.15


def test_cache_ablation_ttfb():
    result = run_cache_ablation(SCALE)
    # The FE cache saves at least the fetch time on the first byte.
    assert result.ttfb_improvement > units.ms(100)
    assert result.overall_uncached >= result.overall_cached


def test_placement_ablation_diminishing_returns():
    result = run_placement_ablation(SCALE)
    assert len(result.points) == 3
    # Density improves RTT monotonically...
    rtts = [p.median_rtt for p in result.points]
    assert rtts[0] > rtts[-1]
    # ...but the overall delay saturates: the total gain is well below
    # the fetch time (the paper's placement/fetch trade-off).
    assert result.overall_gain() < units.ms(120)


def test_loss_ablation_split_advantage_grows():
    result = run_loss_ablation(SCALE)
    assert result.advantage_grows_with_loss()
    assert result.points[-1].split_advantage > \
        result.points[0].split_advantage + units.ms(50)
