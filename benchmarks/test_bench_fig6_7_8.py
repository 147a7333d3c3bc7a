"""Benchmarks: regenerate Figures 6, 7 and 8 (one Dataset-A campaign).

* Figure 6 — RTT CDFs to the default FEs (Bing/Akamai closer).
* Figure 7 — Tstatic/Tdynamic scatter (Bing slower & more variable
  despite closer FEs).
* Figure 8 — per-node overall-delay box plots.
"""

import pytest

from repro.experiments.dataset_a import (
    run_dataset_a_experiment,
    run_fig6,
    run_fig7,
    run_fig8,
)
from repro.experiments.report import render_fig6, render_fig7, render_fig8
from repro.testbed.scenario import Scenario


@pytest.fixture(scope="module")
def campaign(bench_scale, bench_shards):
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_CAMPAIGN_SHARDS", str(bench_shards))
        return run_dataset_a_experiment(bench_scale)


def test_bench_fig6(benchmark, campaign):
    result = benchmark.pedantic(run_fig6, kwargs={"experiment": campaign},
                                iterations=1, rounds=1)
    print()
    print(render_fig6(result))

    assert result.under_20ms[Scenario.BING] > \
        result.under_20ms[Scenario.GOOGLE]
    assert result.under_20ms[Scenario.BING] >= 0.6


def test_bench_fig7(benchmark, campaign):
    result = benchmark.pedantic(run_fig7, kwargs={"experiment": campaign},
                                iterations=1, rounds=1)
    print()
    print(render_fig7(result))

    assert result.comparison.closer_frontends() == Scenario.BING
    assert result.comparison.faster_overall() == Scenario.GOOGLE
    assert result.comparison.paradox_present


def test_bench_fig8(benchmark, campaign):
    result = benchmark.pedantic(run_fig8, kwargs={"experiment": campaign},
                                iterations=1, rounds=1)
    print()
    print(render_fig8(result))

    assert result.comparison.more_variable() == Scenario.BING
