"""The Dataset-A campaign shared by Figures 6, 7 and 8.

One run — every vantage point querying its default front-end server of
each service — feeds three of the paper's figures:

* **Figure 6** — CDF of client-to-default-FE RTT per service;
* **Figure 7** — scatter of per-query Tstatic / Tdynamic against RTT;
* **Figure 8** — per-node box plots of the overall response delay.

Runners for the individual figures are thin views over
:class:`DatasetAExperiment`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.analysis.stats import BoxStats, box_stats, cdf_points, fraction_below
from repro.content.keywords import KeywordCatalog
from repro.core.compare import ComparisonReport, compare_services
from repro.core.metrics import QueryMetrics, extract_all_calibrated
from repro.experiments.common import (
    ExperimentScale,
    build_scenario,
    calibrate_frontends_used,
)
from repro.measure.driver import run_dataset_a
from repro.sim import units


@dataclass
class DatasetAExperiment:
    """Results of one Dataset-A campaign, with per-figure views."""

    scale: ExperimentScale
    metrics: Dict[str, List[QueryMetrics]]
    default_rtts: Dict[str, List[float]]

    # ------------------------------------------------------------------
    # Figure 6
    # ------------------------------------------------------------------
    def rtt_cdf(self, service: str) -> List[Tuple[float, float]]:
        """The Figure-6 CDF for one service."""
        return cdf_points(self.default_rtts[service])

    def fraction_under(self, service: str, threshold: float) -> float:
        """Fraction of nodes with default-FE RTT under ``threshold``."""
        return fraction_below(self.default_rtts[service], threshold)

    # ------------------------------------------------------------------
    # Figure 7
    # ------------------------------------------------------------------
    def scatter(self, service: str, which: str
                ) -> List[Tuple[float, float]]:
        """(rtt, metric) scatter for Figure 7 ('tstatic'/'tdynamic')."""
        return [(m.rtt, getattr(m, which)) for m in self.metrics[service]]

    # ------------------------------------------------------------------
    # Figure 8
    # ------------------------------------------------------------------
    def overall_delay_boxes(self, service: str
                            ) -> List[Tuple[str, BoxStats]]:
        """Per-vantage-point box stats of the overall delay."""
        by_vp: Dict[str, List[float]] = {}
        for metric in self.metrics[service]:
            by_vp.setdefault(metric.session.vp_name, []).append(
                metric.overall_delay)
        return [(vp, box_stats(values))
                for vp, values in sorted(by_vp.items())]

    # ------------------------------------------------------------------
    def comparison(self) -> ComparisonReport:
        """The Section-4.2 comparison across both services."""
        return compare_services(self.metrics)


def run_dataset_a_experiment(scale: Optional[ExperimentScale] = None
                             ) -> DatasetAExperiment:
    """Run the campaign once and wrap it for the three figures.

    With the ``REPRO_CAMPAIGN_SHARDS`` environment variable above 1
    (default 1) the campaign runs through
    :func:`repro.parallel.run_dataset_a_sharded` on that many shards,
    one process per CPU; that is how ``python -m repro --shards N`` and
    the benchmark harness plumb the setting through without touching
    every runner signature.

    Sharding requires per-query keyed service draws
    (``ScenarioConfig(keyed_service_draws=True)``), so the sharded run
    is a *different realization* of the same distributions than the
    serial default — statistically identical, not bit-identical.  What
    IS bit-identical is sharded-vs-serial within the keyed mode: the
    same keyed scenario run with any shard/process count produces the
    same sessions (see ``docs/PERFORMANCE.md``).  Calibration always
    runs in-process: its content analysis is deterministic for a fixed
    config, so the boundary table is the same either way.
    """
    scale = scale or ExperimentScale.small()
    shards = int(os.environ.get("REPRO_CAMPAIGN_SHARDS", "1"))
    keywords = KeywordCatalog(seed=scale.seed).figure3_set()
    if shards > 1:
        from repro.parallel import run_dataset_a_sharded
        scenario = build_scenario(scale, keyed_service_draws=True)
        dataset = run_dataset_a_sharded(
            scenario, keywords, repeats=scale.repeats,
            interval=scale.interval, shards=shards)
    else:
        scenario = build_scenario(scale)
        dataset = run_dataset_a(scenario, keywords, repeats=scale.repeats,
                                interval=scale.interval)

    metrics: Dict[str, List[QueryMetrics]] = {}
    default_rtts: Dict[str, List[float]] = {}
    for service_name in scenario.services:
        sessions = dataset.for_service(service_name)
        calibration = calibrate_frontends_used(scenario, service_name,
                                               sessions)
        metrics[service_name] = extract_all_calibrated(sessions,
                                                       calibration)
        default_rtts[service_name] = [
            rtt for (vp, svc), (fe, rtt) in dataset.default_fe.items()
            if svc == service_name]
        # Calibration just located the static/dynamic boundary: complete
        # the traced session spans with t4/t5 and the static/dynamic
        # phases (no-op when tracing is off).
        obs.annotate_boundaries(metrics[service_name])
    return DatasetAExperiment(scale=scale, metrics=metrics,
                              default_rtts=default_rtts)


# ---------------------------------------------------------------------------
# thin per-figure runners
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Fig6Result:
    """RTT CDFs and the <20 ms fractions the paper quotes."""

    cdfs: Dict[str, List[Tuple[float, float]]]
    under_20ms: Dict[str, float]


def run_fig6(experiment: DatasetAExperiment) -> Fig6Result:
    """Figure 6 view (RTT CDFs) over a Dataset-A campaign."""
    services = sorted(experiment.default_rtts)
    return Fig6Result(
        cdfs={s: experiment.rtt_cdf(s) for s in services},
        under_20ms={s: experiment.fraction_under(s, units.ms(20))
                    for s in services})


@dataclass(frozen=True)
class Fig7Result:
    """Figure-7 scatters plus the paper's qualitative comparison."""

    tstatic: Dict[str, List[Tuple[float, float]]]
    tdynamic: Dict[str, List[Tuple[float, float]]]
    comparison: ComparisonReport


def run_fig7(experiment: DatasetAExperiment) -> Fig7Result:
    """Figure 7 view (metric scatters + comparison)."""
    services = sorted(experiment.metrics)
    return Fig7Result(
        tstatic={s: experiment.scatter(s, "tstatic") for s in services},
        tdynamic={s: experiment.scatter(s, "tdynamic") for s in services},
        comparison=experiment.comparison())


@dataclass(frozen=True)
class Fig8Result:
    """Per-node overall-delay box stats per service."""

    boxes: Dict[str, List[Tuple[str, BoxStats]]]
    comparison: ComparisonReport


def run_fig8(experiment: DatasetAExperiment) -> Fig8Result:
    """Figure 8 view (per-node overall-delay boxes)."""
    services = sorted(experiment.metrics)
    return Fig8Result(
        boxes={s: experiment.overall_delay_boxes(s) for s in services},
        comparison=experiment.comparison())
