"""RTT-threshold estimation (Section 4.1).

The paper's reading of Figure 5: as the client-FE RTT grows, ``Tdelta``
decreases roughly linearly and hits zero at a threshold RTT — beyond
which the dynamic portion coalesces with the static delivery and further
reducing the RTT "will not drastically improve the overall user
perceived performance".  Symmetrically, ``Tdynamic`` is constant below
the threshold and grows linearly above it.

This module estimates that threshold from (RTT, Tdelta) samples: it bins
by RTT, takes per-bin medians, fits the decreasing segment, and reports
where the fit (and the data) reach zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.analysis.stats import LinearFit, binned_medians, linear_fit
from repro.sim import units

#: Width of the RTT bins the per-bin medians are taken over.
RTT_BIN_WIDTH = units.ms(20)

#: Median Tdelta at or below this counts as extinguished.
ZERO_TOLERANCE = units.ms(5)


@dataclass(frozen=True)
class ThresholdEstimate:
    """Result of the Tdelta-extinction analysis.

    Attributes
    ----------
    threshold_rtt:
        Estimated RTT (seconds) at which Tdelta reaches ~zero.
    fit:
        Linear fit of the decreasing (positive-Tdelta) segment; its
        slope estimates ``-k`` (static delivery windows) and its
        intercept estimates ``Tfetch - fe_delay``.
    bin_medians:
        The (rtt_bin_center, median_tdelta) points used.
    zero_bin_rtt:
        Center of the first RTT bin whose median Tdelta fell to
        :data:`ZERO_TOLERANCE` (None if no bin did).
    """

    threshold_rtt: float
    fit: Optional[LinearFit]
    bin_medians: List[Tuple[float, float]]
    zero_bin_rtt: Optional[float]


def estimate_tdelta_threshold(rtts: Sequence[float],
                              tdeltas: Sequence[float]
                              ) -> ThresholdEstimate:
    """Estimate where median Tdelta reaches zero as a function of RTT,
    over :data:`RTT_BIN_WIDTH` bins."""
    if len(rtts) != len(tdeltas):
        raise ValueError("rtts and tdeltas must have equal length")
    if len(rtts) < 2:
        raise ValueError("need at least two samples")
    points = binned_medians(rtts, tdeltas, RTT_BIN_WIDTH)
    if not points:
        raise ValueError("binning produced no points")

    zero_bin_rtt = None
    for center, med in points:
        if med <= ZERO_TOLERANCE:
            zero_bin_rtt = center
            break

    # Fit only the decreasing, strictly positive segment.
    positive = [(x, y) for x, y in points if y > ZERO_TOLERANCE]
    fit = None
    threshold = None
    if len(positive) >= 2 and len({x for x, _ in positive}) >= 2:
        fit = linear_fit([x for x, _ in positive],
                         [y for _, y in positive])
        if fit.slope < 0:
            threshold = -fit.intercept / fit.slope
    if threshold is None:
        # Fall back to the first zero bin, or the largest observed RTT
        # when Tdelta never reached zero in the data.
        threshold = zero_bin_rtt if zero_bin_rtt is not None \
            else max(x for x, _ in points)
    elif zero_bin_rtt is not None:
        # The fit can overshoot when the tail is flat; keep it within
        # one bin of the first observed zero.
        threshold = min(threshold, zero_bin_rtt + RTT_BIN_WIDTH)
    return ThresholdEstimate(threshold_rtt=float(threshold), fit=fit,
                             bin_medians=points, zero_bin_rtt=zero_bin_rtt)


@dataclass(frozen=True)
class RegimeSplit:
    """Tdynamic's two regimes: flat (fetch-bound) then linear (RTT-bound).

    Attributes
    ----------
    flat_level:
        Median Tdynamic over the bins below the split (the Tfetch
        plateau).
    linear_fit:
        Fit over the bins above the split (slope ~ static windows k).
    split_rtt:
        The RTT separating the regimes.
    """

    flat_level: float
    linear_fit: Optional[LinearFit]
    split_rtt: float


def split_tdynamic_regimes(rtts: Sequence[float],
                           tdynamics: Sequence[float]) -> RegimeSplit:
    """Characterise Tdynamic's flat-then-linear shape.

    The split is the bin after which the :data:`RTT_BIN_WIDTH` medians
    start rising consistently.
    """
    points = binned_medians(rtts, tdynamics, RTT_BIN_WIDTH)
    if not points:
        raise ValueError("no data")
    split_rtt = _detect_rise(points)
    low = [y for x, y in points if x <= split_rtt]
    high = [(x, y) for x, y in points if x > split_rtt]
    flat_level = (sorted(low)[len(low) // 2] if low
                  else points[0][1])
    fit = None
    if len(high) >= 2 and len({x for x, _ in high}) >= 2:
        fit = linear_fit([x for x, _ in high], [y for _, y in high])
    return RegimeSplit(flat_level=float(flat_level), linear_fit=fit,
                       split_rtt=float(split_rtt))


def _detect_rise(points: List[Tuple[float, float]]) -> float:
    """Heuristic split: first bin from which medians keep increasing."""
    if len(points) < 3:
        return points[-1][0]
    base = min(y for _, y in points[:max(1, len(points) // 3)])
    for index in range(len(points) - 1):
        x, y = points[index]
        tail = points[index:]
        rising = all(tail[i + 1][1] >= tail[i][1] * 0.95
                     for i in range(len(tail) - 1))
        if y > base * 1.2 and rising:
            return points[max(0, index - 1)][0]
    return points[-1][0]
