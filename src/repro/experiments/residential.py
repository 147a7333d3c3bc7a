"""Beyond PlanetLab: residential and mobile access (reviewers' critique).

The summary reviews press on the paper's testbed bias: PlanetLab nodes
sit in campus networks near Akamai clusters, so 80% seeing <20 ms is
"certainly not realistic" for DSL or mobile users.  This experiment
re-runs the default-FE campaign over three access populations — campus
(the paper's), residential DSL, and 3G mobile — and reports how the
paper's conclusions shift:

* RTT CDFs move right (far fewer nodes under 20 ms);
* more users sit *above* the Tdelta-extinction threshold, where FE
  placement no longer matters and the FE-BE fetch time fully determines
  Tdynamic — i.e. the paper's central trade-off grows *stronger* for
  real users;
* with lossy last hops, split TCP's local recovery keeps overall
  delays from exploding (the paper's Section-6 argument).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.analysis.stats import fraction_below, median
from repro.content.keywords import Keyword
from repro.core.metrics import extract_all_calibrated
from repro.experiments.common import (
    ExperimentScale,
    calibrate_frontends_used,
)
from repro.measure.driver import run_dataset_a
from repro.sim import units
from repro.testbed.residential import (
    CAMPUS,
    MOBILE_3G,
    RESIDENTIAL_DSL,
    AccessProfile,
    scenario_with_access_profile,
)
from repro.testbed.scenario import Scenario

PROBE_KEYWORD = Keyword(text="access profile probe", popularity=0.5,
                        complexity=0.5)


@dataclass
class AccessProfileRow:
    """One population's measurements for one service."""

    profile: str
    service: str
    median_rtt: float
    fraction_under_20ms: float
    median_tdynamic: float
    median_overall: float
    #: Fraction of queries still below the threshold (Tdelta > 0),
    #: i.e. users for whom moving the FE closer would still help.
    fraction_below_threshold: float


@dataclass
class ResidentialResult:
    """The campus / DSL / mobile comparison."""

    service: str
    rows: List[AccessProfileRow] = field(default_factory=list)

    def row(self, profile_name: str) -> AccessProfileRow:
        for row in self.rows:
            if row.profile == profile_name:
                return row
        raise KeyError(profile_name)

    def rtts_degrade(self) -> bool:
        """Campus < DSL < mobile in median RTT."""
        rtts = [row.median_rtt for row in self.rows]
        return rtts == sorted(rtts)

    def placement_relevance_shrinks(self) -> bool:
        """Fewer and fewer users below the threshold as access worsens."""
        fractions = [row.fraction_below_threshold for row in self.rows]
        return fractions[0] >= fractions[-1]


def run_residential(scale: Optional[ExperimentScale] = None
                    ) -> ResidentialResult:
    """Run the three-population comparison on the Bing-like service."""
    scale = scale or ExperimentScale.small()
    result = ResidentialResult(service=Scenario.BING)
    for profile in (CAMPUS, RESIDENTIAL_DSL, MOBILE_3G):
        result.rows.append(_run_population(scale, profile))
    return result


def _run_population(scale: ExperimentScale,
                    profile: AccessProfile) -> AccessProfileRow:
    service_name = Scenario.BING
    scenario = scenario_with_access_profile(
        profile, seed=scale.seed, vantage_count=scale.vantage_count)
    dataset = run_dataset_a(scenario, [PROBE_KEYWORD],
                            repeats=scale.repeats,
                            interval=scale.interval,
                            services=[service_name])
    sessions = dataset.for_service(service_name)
    calibration = calibrate_frontends_used(scenario, service_name,
                                           sessions)
    metrics = extract_all_calibrated(sessions, calibration)
    if not metrics:
        raise RuntimeError("population %r produced no metrics"
                           % profile.name)
    rtts = [rtt for (vp, svc), (fe, rtt) in dataset.default_fe.items()
            if svc == service_name]
    tdeltas = [m.tdelta for m in metrics]
    return AccessProfileRow(
        profile=profile.name,
        service=service_name,
        median_rtt=median(rtts),
        fraction_under_20ms=fraction_below(rtts, units.ms(20)),
        median_tdynamic=median([m.tdynamic for m in metrics]),
        median_overall=median([m.overall_delay for m in metrics]),
        fraction_below_threshold=fraction_below(
            [-t for t in tdeltas], -units.ms(5)))


def render_residential(result: ResidentialResult) -> str:
    """Text report for the access-profile comparison."""
    lines = ["Access-profile study (%s) — the reviewers' critique"
             % result.service]
    lines.append("  %-16s %10s %10s %12s %12s %18s"
                 % ("population", "RTT med", "<20ms", "Tdyn med",
                    "overall", "below threshold"))
    for row in result.rows:
        lines.append("  %-16s %8.1fms %9.0f%% %10.1fms %10.1fms %17.0f%%"
                     % (row.profile,
                        units.seconds_to_ms(row.median_rtt),
                        row.fraction_under_20ms * 100,
                        units.seconds_to_ms(row.median_tdynamic),
                        units.seconds_to_ms(row.median_overall),
                        row.fraction_below_threshold * 100))
    lines.append("  RTTs degrade campus -> mobile: %s"
                 % result.rtts_degrade())
    lines.append("  placement relevance shrinks: %s"
                 % result.placement_relevance_shrinks())
    return "\n".join(lines)
