#!/usr/bin/env python
"""Quickstart: one search query, end to end, with the paper's metrics.

Builds the simulated measurement universe (two services, PlanetLab-style
vantage points), issues a single query from one vantage point to its
default front-end server, captures the packet trace, runs the content
analysis to find the static/dynamic boundary, and prints the paper's
timeline (tb, t1 ... te) and derived metrics.

Run::

    python examples/quickstart.py
"""

from repro.analysis.boundary import BoundaryCalibration
from repro.content.keywords import Keyword
from repro.core.metrics import extract_metrics
from repro.measure.driver import run_queries
from repro.sim import units
from repro.testbed.scenario import Scenario, ScenarioConfig


def main() -> None:
    # A small universe: 20 vantage points, both service deployments.
    scenario = Scenario(ScenarioConfig(seed=42, vantage_count=20))
    vp = scenario.vantage_points[0]
    print("Vantage point: %s (metro: %s)" % (vp.name, vp.metro.name))

    # Issue three queries to the default (DNS-resolved) front-end: two
    # extra keywords make the content analysis (static/dynamic boundary
    # detection) possible.  The plan is played by the emulator, the
    # paper's in-house search box, with packet payloads captured.
    frontend, _ = scenario.connect_default(Scenario.GOOGLE, vp)
    keywords = [
        Keyword(text="dynamic content distribution", popularity=0.4,
                complexity=0.4),
        Keyword(text="front end servers", popularity=0.4, complexity=0.4),
        Keyword(text="split tcp performance", popularity=0.4,
                complexity=0.4),
    ]
    plan = [(scenario.sim.now, vp, Scenario.GOOGLE, frontend, keyword)
            for keyword in keywords]
    sessions = run_queries(scenario, plan, store_payload=True)[vp.name]

    session = sessions[0]
    print("Queried %r against %s" % (session.keyword.text, session.fe_name))
    print("Response: %d bytes in %.1f ms over %d packets"
          % (session.response_size,
             units.seconds_to_ms(session.duration),
             len(session.events)))

    # Content analysis: where does the dynamic portion begin?
    calibration = BoundaryCalibration.from_sessions(sessions)
    boundary = calibration.boundary_for(session)
    print("Static portion: %d bytes (boundary at stream offset %d)"
          % (calibration.static_size, boundary.dynamic_start))

    # The paper's timeline and metrics.
    metrics = extract_metrics(session, boundary)
    timeline = metrics.timeline
    print()
    print("Packet-level timeline (ms since connection open):")
    for name, value in (("tb (SYN sent)", timeline.tb),
                        ("t1 (GET sent)", timeline.t1),
                        ("t2 (GET acked)", timeline.t2),
                        ("t3 (first static byte)", timeline.t3),
                        ("t4 (last static byte)", timeline.t4),
                        ("t5 (first dynamic byte)", timeline.t5),
                        ("te (last byte)", timeline.te)):
        print("  %-24s %8.1f" % (name, units.seconds_to_ms(
            value - timeline.tb)))
    print()
    print("Derived metrics:")
    print("  RTT       = %6.1f ms" % units.seconds_to_ms(metrics.rtt))
    print("  Tstatic   = %6.1f ms" % units.seconds_to_ms(metrics.tstatic))
    print("  Tdynamic  = %6.1f ms" % units.seconds_to_ms(metrics.tdynamic))
    print("  Tdelta    = %6.1f ms" % units.seconds_to_ms(metrics.tdelta))
    print("  overall   = %6.1f ms"
          % units.seconds_to_ms(metrics.overall_delay))

    # Ground truth (unavailable to the paper, recorded by the simulator):
    service = scenario.service(Scenario.GOOGLE)
    record = service.merged_fetch_log()[session.query_id]
    print()
    print("Ground truth: Tfetch = %.1f ms  (Eq. 1: %.1f <= %.1f <= %.1f)"
          % (units.seconds_to_ms(record.tfetch),
             units.seconds_to_ms(metrics.tdelta),
             units.seconds_to_ms(record.tfetch),
             units.seconds_to_ms(metrics.tdynamic)))


if __name__ == "__main__":
    main()
