"""Figure 5: Tstatic, Tdynamic and Tdelta versus client-FE RTT.

The paper's Dataset-B analysis: every vantage point repeatedly queries
one fixed front-end per service; per-node medians of the three metrics
are plotted against the node's RTT to that FE.  Expected shapes:

* ``Tstatic`` — roughly flat in RTT (FE-side effect only);
* ``Tdynamic`` — constant at small RTT (fetch-bound), linear at large
  RTT (delivery-bound);
* ``Tdelta`` — decreasing ~linearly, reaching zero at a threshold RTT
  (50-100 ms for the google-like service, 100-200 ms for the
  bing-akamai-like one).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.stats import binned_medians, median
from repro.content.keywords import Keyword
from repro.core.metrics import QueryMetrics, extract_all_calibrated
from repro.core.threshold import (
    RTT_BIN_WIDTH,
    RegimeSplit,
    ThresholdEstimate,
    estimate_tdelta_threshold,
    split_tdynamic_regimes,
)
from repro.experiments.common import (
    ExperimentScale,
    build_scenario,
    calibrate_service,
)
from repro.measure.driver import run_dataset_b
from repro.testbed.scenario import Scenario

#: The fixed-FE query keyword (the paper used one keyword per run).
FIG5_KEYWORD = Keyword(text="fixed frontend probe", popularity=0.5,
                       complexity=0.5)


@dataclass
class ServiceCurves:
    """Per-node medians against RTT for one service."""

    service: str
    fe_name: str
    #: (rtt, median) scatter points, one per vantage point.
    tstatic: List[Tuple[float, float]] = field(default_factory=list)
    tdynamic: List[Tuple[float, float]] = field(default_factory=list)
    tdelta: List[Tuple[float, float]] = field(default_factory=list)
    threshold: Optional[ThresholdEstimate] = None
    regimes: Optional[RegimeSplit] = None

    def binned(self, which: str):
        points = getattr(self, which)
        return binned_medians([p[0] for p in points],
                              [p[1] for p in points], RTT_BIN_WIDTH)


@dataclass
class Fig5Result:
    """Both services' curves (the paper's three panels x two colors)."""

    curves: Dict[str, ServiceCurves]

    def thresholds_ms(self) -> Dict[str, float]:
        return {name: curve.threshold.threshold_rtt * 1000.0
                for name, curve in self.curves.items()
                if curve.threshold is not None}


def run_fig5(scale: Optional[ExperimentScale] = None) -> Fig5Result:
    """Run the Dataset-B campaign for each service and build the curves."""
    scale = scale or ExperimentScale.small()
    result = Fig5Result(curves={})
    for service_name in (Scenario.GOOGLE, Scenario.BING):
        # Independent scenarios keep the campaigns from interfering.
        scenario = build_scenario(scale)
        service = scenario.service(service_name)
        frontend = _representative_frontend(scenario, service_name)
        calibration = calibrate_service(scenario, service_name, [frontend])
        dataset = run_dataset_b(scenario, service_name, frontend,
                                FIG5_KEYWORD, repeats=scale.repeats,
                                interval=scale.interval)
        metrics = extract_all_calibrated(dataset.sessions, calibration)
        result.curves[service_name] = _build_curves(
            service_name, frontend.node.name, metrics)
    return result


def _representative_frontend(scenario: Scenario, service_name: str):
    """A fixed FE with a wide spread of client RTTs (a central-US site)."""
    service = scenario.service(service_name)
    for preferred in ("chicago", "dallas", "washington-dc"):
        for frontend in service.frontends:
            if preferred in frontend.node.name:
                return frontend
    return service.frontends[0]


def _build_curves(service_name: str, fe_name: str,
                  metrics: List[QueryMetrics]) -> ServiceCurves:
    curves = ServiceCurves(service=service_name, fe_name=fe_name)
    by_vp: Dict[str, List[QueryMetrics]] = {}
    for metric in metrics:
        by_vp.setdefault(metric.session.vp_name, []).append(metric)
    for vp_name, group in sorted(by_vp.items()):
        rtt = median([m.rtt for m in group])
        curves.tstatic.append((rtt, median([m.tstatic for m in group])))
        curves.tdynamic.append((rtt, median([m.tdynamic for m in group])))
        curves.tdelta.append((rtt, median([m.tdelta for m in group])))
    rtts = [p[0] for p in curves.tdelta]
    tdeltas = [p[1] for p in curves.tdelta]
    if len(set(rtts)) >= 2:
        curves.threshold = estimate_tdelta_threshold(rtts, tdeltas)
        curves.regimes = split_tdynamic_regimes(
            [p[0] for p in curves.tdynamic],
            [p[1] for p in curves.tdynamic])
    return curves
