"""Front-end load sensitivity (Section 4.2's speculation, made testable).

The paper *speculates* why Bing's Tstatic is higher and more variable:
"may be due to the higher and more variable loads at the Akamai FE
servers, as they are shared with a number of other services; while
Google FE servers ... are likely dedicated".  The simulator implements
that mechanism (``FrontEndLoadModel.per_concurrent_delay``), so this
experiment can exhibit it directly: a fixed probe client measures
Tstatic against one FE while a crowd of background clients sweeps the
offered load.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from operator import itemgetter
from typing import List, Optional, Sequence

from repro.analysis.stats import median, percentile
from repro.content.keywords import Keyword
from repro.core.metrics import extract_all_calibrated
from repro.experiments.common import (
    ExperimentScale,
    build_scenario,
    calibrate_service,
    colocated_vantage_point,
)
from repro.measure.driver import run_queries
from repro.testbed.scenario import Scenario
from repro.testbed.sites import nearest_metro

PROBE_KEYWORD = Keyword(text="load probe query", popularity=0.5,
                        complexity=0.5)
BACKGROUND_KEYWORD = Keyword(text="background traffic query",
                             popularity=0.5, complexity=0.5)

#: Seconds between one background client's queries; the probe queries
#: at twice this interval.
BACKGROUND_INTERVAL = 0.6


@dataclass
class LoadPoint:
    """One offered-load level."""

    background_clients: int
    peak_concurrency: int
    tstatic_median: float
    tstatic_p90: float
    tdynamic_median: float


@dataclass
class LoadSensitivityResult:
    """Tstatic as a function of FE load."""

    service: str
    fe_name: str
    points: List[LoadPoint] = field(default_factory=list)

    def tstatic_inflation(self) -> float:
        """Median Tstatic increase from the lightest to heaviest load."""
        return (self.points[-1].tstatic_median
                - self.points[0].tstatic_median)

    def variability_grows(self) -> bool:
        """p90-median spread widens with load."""
        spreads = [p.tstatic_p90 - p.tstatic_median
                   for p in self.points]
        return spreads[-1] > spreads[0]


def run_load_sensitivity(scale: Optional[ExperimentScale] = None, *,
                         background_levels: Sequence[int] = (0, 8, 18),
                         probe_queries: int = 36
                         ) -> LoadSensitivityResult:
    """Sweep background load on one Bing-like FE; measure a co-located
    probe."""
    scale = scale or ExperimentScale.small()
    result = LoadSensitivityResult(service=Scenario.BING, fe_name="")
    for level in background_levels:
        point, fe_name = _run_level(scale, level, probe_queries)
        result.points.append(point)
        result.fe_name = fe_name
    return result


def _run_level(scale: ExperimentScale, background_clients: int,
               probe_queries: int):
    service_name = Scenario.BING
    scenario = build_scenario(scale)
    service = scenario.service(service_name)
    frontend = service.frontends[0]
    calibration = calibrate_service(scenario, service_name, [frontend])

    metro = nearest_metro(frontend.location)
    crowd = [colocated_vantage_point(scenario, metro, "bg-%d" % index)
             for index in range(background_clients)]
    probe = colocated_vantage_point(scenario, metro, "probe")
    start = scenario.sim.now

    def pump(index: int):
        """Background client ``index``: sustained queries at a fixed
        interval, staggered across the crowd."""
        time = start + index * BACKGROUND_INTERVAL / max(
            1, background_clients)
        for _ in range(probe_queries * 2):
            yield (time, crowd[index], service_name, frontend,
                   BACKGROUND_KEYWORD)
            time = time + BACKGROUND_INTERVAL

    def probe_loop():
        time = start + BACKGROUND_INTERVAL * 2  # let the crowd ramp up
        for _ in range(probe_queries):
            yield (time, probe, service_name, frontend, PROBE_KEYWORD)
            time = time + BACKGROUND_INTERVAL * 2

    # On a tie the probe goes first: the crowd planned its query later
    # (one background interval before, against the probe's two).
    plan = heapq.merge(probe_loop(), *map(pump, range(background_clients)),
                       key=itemgetter(0))
    probe_sessions = run_queries(scenario, plan)[probe.name]

    metrics = extract_all_calibrated(probe_sessions, calibration)
    if not metrics:
        raise RuntimeError("probe produced no metrics at load %d"
                           % background_clients)
    tstatics = [m.tstatic for m in metrics]
    point = LoadPoint(
        background_clients=background_clients,
        peak_concurrency=frontend.peak_concurrency,
        tstatic_median=median(tstatics),
        tstatic_p90=percentile(tstatics, 90),
        tdynamic_median=median([m.tdynamic for m in metrics]))
    return point, frontend.node.name


def render_load_sensitivity(result: LoadSensitivityResult) -> str:
    """Text report of the load sweep."""
    from repro.sim import units

    lines = ["FE load sensitivity (%s @ %s)"
             % (result.service, result.fe_name)]
    lines.append("  %-12s %8s %14s %12s %14s"
                 % ("background", "peak", "Tstatic med", "Tstatic p90",
                    "Tdynamic med"))
    for point in result.points:
        lines.append("  %-12d %8d %12.1fms %10.1fms %12.1fms"
                     % (point.background_clients, point.peak_concurrency,
                        units.seconds_to_ms(point.tstatic_median),
                        units.seconds_to_ms(point.tstatic_p90),
                        units.seconds_to_ms(point.tdynamic_median)))
    lines.append("  Tstatic inflation under load: %.1f ms; "
                 "variability grows: %s"
                 % (units.seconds_to_ms(result.tstatic_inflation()),
                    result.variability_grows()))
    return "\n".join(lines)
