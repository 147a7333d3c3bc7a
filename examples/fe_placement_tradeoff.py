#!/usr/bin/env python
"""The paper's headline trade-off: FE placement vs fetch time.

Two demonstrations:

1. **The RTT threshold** (Figure 5 / Section 4.1): sweep a client's RTT
   to a fixed front-end and watch Tdelta shrink to zero — beyond the
   threshold, moving the FE closer no longer improves Tdynamic, which is
   pinned at the FE-BE fetch time.

2. **The placement ablation**: sweep the CDN's footprint density; RTT
   to the default FE improves dramatically, the user-perceived response
   time barely moves.

Run::

    python examples/fe_placement_tradeoff.py
"""

from repro.analysis.boundary import BoundaryCalibration
from repro.content.keywords import Keyword
from repro.core.metrics import extract_metrics
from repro.core.threshold import estimate_tdelta_threshold
from repro.experiments.ablation import run_placement_ablation
from repro.experiments.common import CALIBRATION_KEYWORDS, ExperimentScale
from repro.experiments.report import render_placement
from repro.measure.driver import run_queries
from repro.sim import units
from repro.testbed.scenario import Scenario, ScenarioConfig
from repro.testbed.sites import METROS
from repro.testbed.vantage import VantagePoint


def rtt_sweep() -> None:
    """One client at many controlled RTTs against one Bing FE."""
    scenario = Scenario(ScenarioConfig(seed=7, vantage_count=4))
    service = scenario.service(Scenario.BING)
    frontend = service.frontends[0]
    keyword = Keyword(text="placement tradeoff probe", popularity=0.5,
                      complexity=0.5)

    rtts_ms = [5, 20, 40, 60, 80, 100, 120, 140, 170, 200, 240]
    plan = []
    slot = 0.0
    for index, rtt_ms in enumerate(rtts_ms):
        vp = VantagePoint(name="sweep-%03d" % index, metro=METROS[0],
                          location=frontend.location,
                          access_delay=units.ms(rtt_ms) / 2.0,
                          peering_penalty=0.0)
        scenario.add_vantage_point(vp)
        queries = [keyword] * 5
        if index == 0:
            queries += CALIBRATION_KEYWORDS[:2]
        for query in queries:
            plan.append((slot, vp, Scenario.BING, frontend, query))
            slot += 4.0
    # Each client's sessions, in the order of rtts_ms.
    played = list(run_queries(scenario, plan, store_payload=True).values())

    calibration = BoundaryCalibration.from_sessions(
        [s for sessions in played for s in sessions])
    boundary = calibration.boundary_for(played[0][0])

    print("RTT sweep against %s:" % frontend.node.name)
    print("  %-10s %12s %12s %12s" % ("RTT(ms)", "Tstatic", "Tdynamic",
                                      "Tdelta"))
    rtt_values, tdelta_values = [], []
    for rtt_ms, sessions in zip(rtts_ms, played):
        metrics = [extract_metrics(s, boundary)
                   for s in sessions[:5] if s.complete]
        metrics.sort(key=lambda m: m.tdynamic)
        mid = metrics[len(metrics) // 2]
        print("  %-10d %12.1f %12.1f %12.1f"
              % (rtt_ms, units.seconds_to_ms(mid.tstatic),
                 units.seconds_to_ms(mid.tdynamic),
                 units.seconds_to_ms(mid.tdelta)))
        for m in metrics:
            rtt_values.append(m.rtt)
            tdelta_values.append(m.tdelta)

    estimate = estimate_tdelta_threshold(rtt_values, tdelta_values)
    print("  -> estimated RTT threshold: ~%.0f ms  (below it, Tdynamic "
          "is pinned at Tfetch; above it, RTT dominates)"
          % units.seconds_to_ms(estimate.threshold_rtt))


def placement_sweep() -> None:
    result = run_placement_ablation(ExperimentScale.tiny(seed=7))
    print()
    print(render_placement(result))
    print("  -> a %.0fx RTT improvement bought only %.0f ms of overall "
          "delay: optimizing the FE-BE fetch time matters more."
          % (result.points[0].median_rtt
             / max(1e-9, result.points[-1].median_rtt),
             units.seconds_to_ms(result.overall_gain())))


if __name__ == "__main__":
    rtt_sweep()
    placement_sweep()
