"""Figure 3: effect of keyword type on Tstatic and Tdynamic.

The paper submits 500 queries for each of four keywords of different
types (popularity / granularity / complexity) from a fixed client to the
Bing service and plots the moving median (window 10) of Tstatic and
Tdynamic in chronological order.  The observation: **Tdynamic separates
clearly by keyword type while Tstatic does not** — back-end processing
cost is query-dependent, front-end static delivery is not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.analysis.stats import summary
from repro.content.keywords import Keyword, KeywordCatalog
from repro.core.metrics import extract_all_calibrated
from repro.experiments.common import (
    ExperimentScale,
    build_scenario,
    calibrate_service,
)
from repro.measure.driver import run_queries
from repro.testbed.scenario import Scenario


@dataclass
class KeywordSeries:
    """Per-keyword chronological metric series (seconds)."""

    keyword: Keyword
    tstatic: List[float] = field(default_factory=list)
    tdynamic: List[float] = field(default_factory=list)


@dataclass
class Fig3Result:
    """Data behind Figure 3 (left panel Tstatic, right Tdynamic)."""

    service: str
    series: Dict[str, KeywordSeries]

    def tdynamic_medians(self) -> Dict[str, float]:
        return {text: summary(s.tdynamic)["median"]
                for text, s in self.series.items()}

    def tstatic_medians(self) -> Dict[str, float]:
        return {text: summary(s.tstatic)["median"]
                for text, s in self.series.items()}

    def separation_ratio(self) -> float:
        """How much more keyword type moves Tdynamic than Tstatic.

        Ratio of the across-keyword spread (max - min of medians) for
        Tdynamic versus Tstatic.  The paper's Figure 3 shows this >> 1.
        """
        dyn = self.tdynamic_medians().values()
        sta = self.tstatic_medians().values()
        dyn_spread = max(dyn) - min(dyn)
        sta_spread = max(sta) - min(sta)
        if sta_spread <= 0:
            return float("inf")
        return dyn_spread / sta_spread


def run_fig3(scale: ExperimentScale = None) -> Fig3Result:
    """Run the Figure-3 experiment on the Bing-like service and return
    its data series."""
    scale = scale or ExperimentScale.small()
    service_name = Scenario.BING
    scenario = build_scenario(scale)
    keywords = KeywordCatalog(seed=scale.seed).figure3_set()

    vp = scenario.vantage_points[0]
    frontend = scenario.default_frontend(service_name, vp)
    scenario.service(service_name).register_keywords(keywords)
    calibration = calibrate_service(scenario, service_name, [frontend], vp)

    # Every keyword once per round, rounds ``interval`` apart.
    plan = []
    time = scenario.sim.now
    for _ in range(scale.fig3_samples):
        for keyword in keywords:
            plan.append((time, vp, service_name, frontend, keyword))
        time = time + scale.interval
    sessions_by_keyword = {k.text: [] for k in keywords}
    for session in run_queries(scenario, plan)[vp.name]:
        sessions_by_keyword[session.keyword.text].append(session)

    series = {}
    for keyword in keywords:
        metrics = extract_all_calibrated(sessions_by_keyword[keyword.text],
                                         calibration)
        entry = KeywordSeries(keyword)
        for m in metrics:
            entry.tstatic.append(m.tstatic)
            entry.tdynamic.append(m.tdynamic)
        series[keyword.text] = entry
    return Fig3Result(service=service_name, series=series)
