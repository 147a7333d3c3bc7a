"""Figure 4: packet-event timelines at five client-FE RTTs.

The paper plots send/receive events of five clients (RTTs 10.7, 30,
86.6, 160.4 and 243.3 ms) querying one Bing front-end.  At small RTT
the temporal clusters — handshake, static delivery, dynamic delivery —
are clearly visible; "as the RTT increases, the gap between the end of
the second and the beginning of the third clusters decreases, and
eventually the two are lumped together, as predicted exactly by our
model".

The gap is identified the way the paper did it: "correlating with the
application-layer packet payloads" — i.e. the static/dynamic boundary
comes from content analysis (payload capture + boundary calibration),
and the reported gap is ``t5 - t4`` of each timeline.  The raw burst
structure (for the dot-array rendering) uses plain temporal clustering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.analysis.boundary import BoundaryCalibration
from repro.analysis.clustering import EventCluster, cluster_by_gap
from repro.content.keywords import Keyword
from repro.core.metrics import QueryMetrics, extract_metrics
from repro.experiments.common import (
    CALIBRATION_KEYWORDS,
    ExperimentScale,
    build_scenario,
)
from repro.measure.driver import run_queries
from repro.measure.session import QuerySession
from repro.sim import units
from repro.testbed.scenario import Scenario
from repro.testbed.sites import nearest_metro
from repro.testbed.vantage import VantagePoint

#: The five RTTs (seconds) on the paper's Figure 4 y-axis.
PAPER_FIG4_RTTS = (units.ms(10.656), units.ms(30.003), units.ms(86.647),
                   units.ms(160.38), units.ms(243.25))

#: Display clustering gap for the dot-array rendering (the paper's
#: figure resolves bursts at roughly this granularity).
DISPLAY_CLUSTER_GAP = units.ms(60)

FIG4_KEYWORD = Keyword(text="figure four probe", popularity=0.5,
                       complexity=0.5)

#: Tdelta below this counts as "lumped together" (one MSS serialization
#: plus scheduling noise).
MERGE_EPSILON = units.ms(3)


@dataclass
class TimelineRow:
    """One client's timeline: the Figure-4 horizontal dot array."""

    target_rtt: float
    session: QuerySession
    metrics: QueryMetrics
    display_bursts: List[EventCluster]

    @property
    def gap(self) -> float:
        """The static-to-dynamic gap (t5 - t4), content-correlated."""
        return self.metrics.tdelta

    @property
    def merged(self) -> bool:
        """True when static and dynamic deliveries lumped together."""
        return self.gap <= MERGE_EPSILON

    def event_offsets(self) -> List[Tuple[float, str]]:
        """(elapsed_seconds, direction) pairs since the session start."""
        start = self.session.started_at
        return [(e.time - start, e.direction) for e in self.session.events]


@dataclass
class Fig4Result:
    """All five timelines, ordered by increasing RTT."""

    service: str
    rows: List[TimelineRow] = field(default_factory=list)

    def gaps(self) -> List[Tuple[float, float]]:
        """(rtt, static-to-dynamic gap) pairs."""
        return [(row.target_rtt, row.gap) for row in self.rows]

    def gap_shrinks_with_rtt(self) -> bool:
        """The model's prediction: larger RTT, smaller (or merged) gap."""
        gaps = [row.gap for row in self.rows]
        return all(gaps[i] >= gaps[i + 1] - 0.010
                   for i in range(len(gaps) - 1))


def run_fig4(scale: Optional[ExperimentScale] = None, *,
             service_name: str = Scenario.BING,
             rtts: Sequence[float] = PAPER_FIG4_RTTS,
             repeats: int = 7) -> Fig4Result:
    """Run the Figure-4 experiment.

    Each controlled-RTT client issues ``repeats`` queries (spaced so
    they never contend for the FE's back-end connection pool); the
    reported gap is the per-client *median* ``t5 - t4``, and the
    rendered timeline is the client's median-gap session.
    """
    scale = scale or ExperimentScale.small()
    scenario = build_scenario(scale)
    service = scenario.service(service_name)
    frontend = service.frontends[0]

    plan = []
    spacing = 5.0
    next_slot = 0.0
    for index, rtt in enumerate(rtts):
        vp = VantagePoint(
            name="fig4-client-%02d" % index,
            metro=nearest_metro(frontend.location),
            location=frontend.location,
            access_delay=rtt / 2.0,  # entire one-way delay via access
            peering_penalty=0.0)
        scenario.add_vantage_point(vp)
        for _ in range(repeats):
            plan.append((next_slot, vp, service_name, frontend,
                         FIG4_KEYWORD))
            next_slot += spacing
        if index == 0:
            # Two more keywords from the nearest client, for the content
            # analysis that locates the static/dynamic boundary.
            for keyword in CALIBRATION_KEYWORDS[:2]:
                plan.append((next_slot, vp, service_name, frontend,
                             keyword))
                next_slot += spacing
    played = list(run_queries(scenario, plan, store_payload=True).values())
    probes = [sessions[:repeats] for sessions in played]
    calibration_sessions = played[0][repeats:]

    for sessions in probes:
        for session in sessions:
            if not session.complete:
                raise RuntimeError("figure-4 session failed: %s"
                                   % session.failed)
    calibration = BoundaryCalibration.from_sessions(
        calibration_sessions + [probes[0][0]])
    boundary = calibration.boundary_for(probes[0][0])

    result = Fig4Result(service=service_name)
    for index, rtt in enumerate(rtts):
        metrics = [extract_metrics(s, boundary) for s in probes[index]]
        metrics.sort(key=lambda m: m.tdelta)
        representative = metrics[len(metrics) // 2]
        session = representative.session
        result.rows.append(TimelineRow(
            target_rtt=rtt,
            session=session,
            metrics=representative,
            display_bursts=cluster_by_gap(session.inbound_data_events(),
                                          DISPLAY_CLUSTER_GAP)))
    return result


def render_timelines(result: Fig4Result, width: int = 78) -> str:
    """ASCII rendering of Figure 4: one row per client, time left-to-right."""
    lines = []
    horizon = max(row.event_offsets()[-1][0] for row in result.rows)
    for row in result.rows:
        cells = [" "] * width
        for offset, direction in row.event_offsets():
            column = min(width - 1, int(offset / horizon * (width - 1)))
            mark = "x" if direction == "out" else "o"
            cells[column] = mark if cells[column] == " " else "*"
        label = "%7.2fms |" % units.seconds_to_ms(row.target_rtt)
        lines.append(label + "".join(cells))
    lines.append("%10s +%s" % ("", "-" * width))
    lines.append("%10s  0 ... elapsed ... %.0fms"
                 % ("", units.seconds_to_ms(horizon)))
    return "\n".join(lines)
