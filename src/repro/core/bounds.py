"""Validation of the fetch-time bounds (paper Eq. 1).

The paper's key inferential step is that the unobservable FE-BE fetch
time is sandwiched by two client-side observables:

    Tdelta  <=  Tfetch  <=  Tdynamic

The original study could only argue this from the model.  Because the
simulation records the *true* fetch time at every front-end server
(:class:`repro.services.frontend.FetchRecord`), this module can check the
bounds sample by sample — the reproduction's added value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.core.metrics import QueryMetrics
from repro.services.frontend import FetchRecord


@dataclass(frozen=True)
class BoundSample:
    """One query's bound check against ground truth."""

    query_id: str
    tdelta: float
    tfetch_true: float
    tdynamic: float
    rtt: float

    @property
    def lower_holds(self) -> bool:
        return self.tdelta <= self.tfetch_true + 1e-9

    @property
    def upper_holds(self) -> bool:
        return self.tfetch_true <= self.tdynamic + 1e-9

    @property
    def holds(self) -> bool:
        return self.lower_holds and self.upper_holds

    @property
    def gap(self) -> float:
        """Width of the bound interval (estimation uncertainty)."""
        return self.tdynamic - self.tdelta


@dataclass
class BoundsReport:
    """Aggregate bound validity over a measurement campaign."""

    samples: List[BoundSample] = field(default_factory=list)

    @property
    def n(self) -> int:
        return len(self.samples)

    @property
    def lower_fraction(self) -> float:
        if not self.samples:
            return 0.0
        return sum(s.lower_holds for s in self.samples) / self.n

    @property
    def upper_fraction(self) -> float:
        if not self.samples:
            return 0.0
        return sum(s.upper_holds for s in self.samples) / self.n

    @property
    def both_fraction(self) -> float:
        if not self.samples:
            return 0.0
        return sum(s.holds for s in self.samples) / self.n

    @property
    def mean_gap(self) -> float:
        if not self.samples:
            return 0.0
        return sum(s.gap for s in self.samples) / self.n


def check_bounds(metrics: Sequence[QueryMetrics],
                 fetch_log: Dict[str, FetchRecord]) -> BoundsReport:
    """Check Eq. 1 for every query that has a ground-truth fetch record."""
    report = BoundsReport()
    for metric in metrics:
        record = fetch_log.get(metric.session.query_id)
        if record is None or record.tfetch is None:
            continue
        report.samples.append(BoundSample(
            query_id=metric.session.query_id,
            tdelta=metric.tdelta,
            tfetch_true=record.tfetch,
            tdynamic=metric.tdynamic,
            rtt=metric.rtt))
    return report


def estimate_tfetch(metric: QueryMetrics,
                    weight: float = 0.5) -> float:
    """Point estimate of Tfetch from the bounds.

    ``weight`` interpolates between the lower bound (0.0) and upper
    bound (1.0).  At small client-FE RTT, Tdynamic is the tight bound
    (the paper uses it directly as the Tfetch proxy in Section 5).
    """
    if not 0.0 <= weight <= 1.0:
        raise ValueError("weight must be in [0,1]")
    return (1.0 - weight) * metric.tdelta + weight * metric.tdynamic
