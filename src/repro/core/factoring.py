"""Factoring the FE-BE fetch time (Section 5, Figure 9).

``Tfetch = Tproc + C * RTTbe`` mixes back-end computation with FE-BE
network delay.  The paper separates them with a geographic regression:

1. take front-end servers at varying distances from a chosen back-end
   data center;
2. measure ``Tdynamic`` from *low-RTT* clients against each FE (at low
   client-FE RTT, Tdynamic ~ Tfetch);
3. regress median Tdynamic on FE-BE great-circle distance.

The **intercept** is the distance-free component — the back-end
processing time (the paper reads ~260 ms for Bing, ~34 ms for Google) —
and the **slope** is the network contribution per mile (~0.08-0.099
ms/mile in the paper, similar for both services since both ride on
fiber).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.stats import LinearFit, linear_fit, median
from repro.core.metrics import QueryMetrics
from repro.sim import units

#: Clients at or below this RTT count as low-RTT: their Tdynamic
#: approximates Tfetch.
LOW_RTT_CUTOFF = units.ms(40)

#: Low-RTT samples an FE needs to contribute a distance point.
MIN_SAMPLES = 3


@dataclass(frozen=True)
class DistancePoint:
    """One FE's contribution to the Figure-9 regression."""

    fe_name: str
    distance_miles: float
    tdynamic_median: float
    samples: int


@dataclass(frozen=True)
class FetchFactoring:
    """The Figure-9 result for one service."""

    points: Tuple[DistancePoint, ...]
    fit: LinearFit

    @property
    def tproc_estimate(self) -> float:
        """Back-end processing time: the regression intercept (seconds)."""
        return self.fit.intercept

    @property
    def slope_ms_per_mile(self) -> float:
        """Network delay contribution, in ms per mile of FE-BE distance."""
        return self.fit.slope * 1000.0


def build_distance_points(
        metrics_by_fe: Dict[str, Sequence[QueryMetrics]],
        fe_distances: Dict[str, float]) -> List[DistancePoint]:
    """Aggregate per-FE Tdynamic medians from low-RTT clients.

    ``metrics_by_fe`` maps FE node name to the metrics of queries served
    by that FE; ``fe_distances`` maps FE node name to its distance from
    the back-end (miles).  Only clients with RTT up to
    :data:`LOW_RTT_CUTOFF` contribute (the paper's "for smaller values
    of RTT, Tdynamic can be considered an approximation of Tfetch"), and
    only FEs with :data:`MIN_SAMPLES` of them.
    """
    points = []
    for fe_name, metrics in metrics_by_fe.items():
        if fe_name not in fe_distances:
            continue
        low_rtt = [m.tdynamic for m in metrics if m.rtt <= LOW_RTT_CUTOFF]
        if len(low_rtt) < MIN_SAMPLES:
            continue
        points.append(DistancePoint(
            fe_name=fe_name,
            distance_miles=fe_distances[fe_name],
            tdynamic_median=median(low_rtt),
            samples=len(low_rtt)))
    return points


def build_sample_pairs(metrics_by_fe: Dict[str, Sequence[QueryMetrics]],
                       fe_distances: Dict[str, float]
                       ) -> List[Tuple[float, float]]:
    """All low-RTT (distance, Tdynamic) samples, unaggregated.

    The paper fits its regression line over the raw scatter (Figure 9
    plots every data point), which keeps the slope identifiable when
    per-query processing noise is comparable to the distance signal.
    """
    pairs = []
    for fe_name, metrics in metrics_by_fe.items():
        distance = fe_distances.get(fe_name)
        if distance is None:
            continue
        for metric in metrics:
            if metric.rtt <= LOW_RTT_CUTOFF:
                pairs.append((distance, metric.tdynamic))
    return pairs


def factor_fetch_time(points: Sequence[DistancePoint],
                      sample_pairs: Optional[Sequence[Tuple[float, float]]]
                      = None) -> FetchFactoring:
    """Fit the Figure-9 regression.

    With ``sample_pairs`` the line is fitted over the raw scatter (the
    paper's method); otherwise over the per-FE medians.  ``points`` are
    always kept for reporting.
    """
    if len(points) < 2:
        raise ValueError("need at least two FE distance points, got %d"
                         % len(points))
    if sample_pairs:
        fit = linear_fit([d for d, _ in sample_pairs],
                         [t for _, t in sample_pairs])
    else:
        fit = linear_fit([p.distance_miles for p in points],
                         [p.tdynamic_median for p in points])
    return FetchFactoring(points=tuple(points), fit=fit)
