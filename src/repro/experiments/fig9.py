"""Figure 9: factoring the fetch time via FE-BE distance regression.

For each service the paper picks one back-end data center (Bing:
Virginia; Google: Lenoir, North Carolina), takes the front-end servers
geographically closest to it, and regresses low-client-RTT ``Tdynamic``
(~ ``Tfetch``) on the FE-BE distance.  The intercept is the back-end
computation time (~260 ms Bing vs ~34 ms Google); the slopes — the
network's per-mile contribution — are similar for the two services.

The runner places one co-located (campus-RTT) probe client next to each
qualifying FE, queries it repeatedly, and fits the regression with
:mod:`repro.core.factoring`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.content.keywords import Keyword
from repro.core.factoring import (
    FetchFactoring,
    build_distance_points,
    build_sample_pairs,
    factor_fetch_time,
)
from repro.core.metrics import extract_all_calibrated
from repro.experiments.common import (
    ExperimentScale,
    build_scenario,
    calibrate_service,
    colocated_vantage_point,
)
from repro.measure.driver import run_queries
from repro.sim import units
from repro.testbed.scenario import Scenario
from repro.testbed.sites import nearest_metro

#: Back-end targets matching the paper's choices.
PAPER_TARGET_BE = {
    Scenario.BING: "boydton-va",       # "the Bing data center in Virginia"
    Scenario.GOOGLE: "lenoir-nc",      # "the Lenoir, North Carolina DC"
}

FIG9_KEYWORD = Keyword(text="distance regression probe", popularity=0.5,
                       complexity=0.5)

#: Front-ends farther than this from the target back-end are left out.
MAX_DISTANCE_MILES = 800.0

#: The fractional difference under which the two slopes are "similar".
SLOPE_TOLERANCE = 0.5


@dataclass
class Fig9ServiceResult:
    """One service's regression (one panel of Figure 9)."""

    service: str
    backend_name: str
    factoring: FetchFactoring

    @property
    def intercept_ms(self) -> float:
        return units.seconds_to_ms(self.factoring.tproc_estimate)

    @property
    def slope_ms_per_mile(self) -> float:
        return self.factoring.slope_ms_per_mile


@dataclass
class Fig9Result:
    """Both panels plus the cross-service claims."""

    panels: Dict[str, Fig9ServiceResult]

    def intercept_ratio(self) -> float:
        """Bing-like intercept over google-like intercept (paper: ~7.6x)."""
        bing = self.panels[Scenario.BING].factoring.tproc_estimate
        google = self.panels[Scenario.GOOGLE].factoring.tproc_estimate
        if google <= 0:
            return float("inf")
        return bing / google

    def slopes_similar(self) -> bool:
        """Whether the two slopes agree within :data:`SLOPE_TOLERANCE`."""
        slopes = [panel.slope_ms_per_mile for panel in self.panels.values()]
        low, high = min(slopes), max(slopes)
        if low <= 0:
            return False
        return (high - low) / high <= SLOPE_TOLERANCE


def run_fig9(scale: Optional[ExperimentScale] = None) -> Fig9Result:
    """Run both regressions and return the Figure-9 result."""
    scale = scale or ExperimentScale.small()
    panels = {}
    for service_name in (Scenario.GOOGLE, Scenario.BING):
        panels[service_name] = _run_service_panel(
            scale, service_name, PAPER_TARGET_BE[service_name])
    return Fig9Result(panels=panels)


def _run_service_panel(scale: ExperimentScale, service_name: str,
                       backend_site: str) -> Fig9ServiceResult:
    scenario = build_scenario(scale)
    service = scenario.service(service_name)
    backend = _backend_by_site(service, backend_site)

    # Qualifying FEs: those whose nearest BE is the target, within range.
    frontends = []
    for frontend in service.frontends:
        if service.backend_for_frontend(frontend) is not backend:
            continue
        distance = frontend.location.distance_miles(backend.location)
        if distance <= MAX_DISTANCE_MILES:
            frontends.append((frontend, distance))
    if len(frontends) < 2:
        raise RuntimeError(
            "only %d front-ends map to backend %r within %.0f miles"
            % (len(frontends), backend_site, MAX_DISTANCE_MILES))

    calibration = calibrate_service(scenario, service_name,
                                    [fe for fe, _ in frontends])

    probes = [(colocated_vantage_point(
        scenario, nearest_metro(frontend.location),
        "fig9-%s-%d" % (service_name, index)), frontend)
        for index, (frontend, _) in enumerate(frontends)]
    # Every probe queries its FE once per round, rounds ``interval``
    # apart.
    plan = []
    time = scenario.sim.now
    for _ in range(scale.fig9_repeats):
        for vp, frontend in probes:
            plan.append((time, vp, service_name, frontend, FIG9_KEYWORD))
        time = time + scale.interval
    sessions = run_queries(scenario, plan)

    metrics_by_fe = {
        frontend.node.name: extract_all_calibrated(sessions[vp.name],
                                                    calibration)
        for vp, frontend in probes}
    distances = {fe.node.name: distance for fe, distance in frontends}
    points = build_distance_points(metrics_by_fe, distances)
    samples = build_sample_pairs(metrics_by_fe, distances)
    factoring = factor_fetch_time(points, sample_pairs=samples)
    return Fig9ServiceResult(service=service_name,
                             backend_name=backend.node.name,
                             factoring=factoring)


def _backend_by_site(service, site_name: str):
    for backend in service.backends:
        if site_name in backend.node.name:
            return backend
    raise KeyError("no backend site %r in %s"
                   % (site_name, service.profile.name))
