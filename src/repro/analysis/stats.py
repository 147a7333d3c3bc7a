"""Statistical helpers used throughout the analysis.

Everything the paper's inference needs: empirical CDFs (Figure 6),
box-plot statistics (Figure 8), per-bin medians against an x variable
(Figure 5), ordinary least-squares linear regression (Figure 9's fit
lines), the two-sample Kolmogorov-Smirnov test (Section 3's
result-caching check) and Spearman's rank correlation (the keyword
study).

Pure Python: the samples are small, and importing numpy and scipy cost
more than every statistic a run computes.  The functions reproduce the
arithmetic of the numpy and scipy calls they replace, so every figure
prints the same digits:

* :func:`median`, :func:`percentile` (numpy's default ``linear``
  method), :func:`box_stats`, :func:`binned_medians` and
  :func:`summary` (mean, ``std(ddof=1)``) equal numpy's results bit for
  bit.  Sums follow numpy's pairwise summation (:func:`_sum`), never
  the built-in ``sum``, which is compensated from Python 3.12 on.
* :func:`linear_fit` is closed-form centred least squares.
  ``numpy.polyfit`` solves by LAPACK, which cannot be reproduced bit
  for bit; the two agree to about 1e-9 relative.
* :func:`ks_2samp` is ``scipy.stats.ks_2samp`` (two-sided, exact): the
  statistic bit for bit, the p-value bit for bit for equal sample
  sizes (scipy's own recurrence) and from exact lattice-path counts
  otherwise.  Two differences: at a statistic of one lattice step the
  exact p-value 1.0 is returned where scipy falls back to an asymptotic
  value, and sizes above 10,000 stay exact where scipy goes asymptotic.
* :func:`spearmanr` is ``scipy.stats.spearmanr``: rho bit for bit
  (average ranks, ``numpy.corrcoef``'s order of operations), the
  p-value from the regularized incomplete beta function.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple


def _sum(values: Sequence[float]) -> float:
    """numpy's float64 sum: pairwise summation over blocks of 8."""
    return _pairwise(values, 0, len(values))


def _pairwise(values: Sequence[float], start: int, n: int) -> float:
    if n < 8:
        total = 0.0
        for i in range(start, start + n):
            total += values[i]
        return total
    if n <= 128:
        r = list(values[start:start + 8])
        end = start + n - n % 8
        for i in range(start + 8, end, 8):
            for j in range(8):
                r[j] += values[i + j]
        total = (((r[0] + r[1]) + (r[2] + r[3]))
                 + ((r[4] + r[5]) + (r[6] + r[7])))
        for i in range(end, start + n):
            total += values[i]
        return total
    half = n // 2
    half -= half % 8
    return (_pairwise(values, start, half)
            + _pairwise(values, start + half, n - half))


def _mean(values: Sequence[float]) -> float:
    return _sum(values) / len(values)


def _floats(values: Sequence[float]) -> List[float]:
    return [float(v) for v in values]


def _median_sorted(ordered: Sequence[float]) -> float:
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def _percentile_sorted(ordered: Sequence[float], q: float) -> float:
    """numpy's ``linear`` percentile of already sorted values."""
    if not 0 <= q <= 100:
        raise ValueError("percentile q must be in [0, 100], got %r" % q)
    n = len(ordered)
    virtual = (n - 1) * (q / 100)
    if virtual >= n - 1:
        return ordered[-1]
    index = math.floor(virtual)
    gamma = virtual - index
    low, high = ordered[index], ordered[index + 1]
    step = high - low
    if gamma >= 0.5:
        return high - step * (1 - gamma)
    return low + step * gamma


def median(values: Sequence[float]) -> float:
    """Plain median; raises on empty input."""
    if len(values) == 0:
        raise ValueError("median of empty sequence")
    return _median_sorted(sorted(_floats(values)))


def percentile(values: Sequence[float], q: float) -> float:
    """q-th percentile (q in [0, 100])."""
    if len(values) == 0:
        raise ValueError("percentile of empty sequence")
    return _percentile_sorted(sorted(_floats(values)), q)


def cdf_points(values: Sequence[float]) -> List[Tuple[float, float]]:
    """Empirical CDF as (value, fraction <= value) steps."""
    if len(values) == 0:
        return []
    ordered = sorted(values)
    n = len(ordered)
    return [(v, (i + 1) / n) for i, v in enumerate(ordered)]


def fraction_below(values: Sequence[float], threshold: float) -> float:
    """Fraction of values strictly below ``threshold``."""
    if len(values) == 0:
        raise ValueError("fraction_below of empty sequence")
    return sum(1 for v in values if v < threshold) / len(values)


@dataclass(frozen=True)
class BoxStats:
    """Five-number summary used for the paper's Figure 8 box plots."""

    low_whisker: float
    q1: float
    median: float
    q3: float
    high_whisker: float


def box_stats(values: Sequence[float]) -> BoxStats:
    """Tukey box-plot statistics (whiskers at 1.5 IQR, clamped to data)."""
    if len(values) == 0:
        raise ValueError("box_stats of empty sequence")
    ordered = sorted(_floats(values))
    q1, q2, q3 = (_percentile_sorted(ordered, q) for q in (25, 50, 75))
    iqr = q3 - q1
    low = min(v for v in ordered if v >= q1 - 1.5 * iqr)
    high = max(v for v in ordered if v <= q3 + 1.5 * iqr)
    # Interpolated quartiles may not be data points; whiskers must still
    # bracket the box.
    low = min(low, q1)
    high = max(high, q3)
    return BoxStats(low, q1, q2, q3, high)


def binned_medians(x: Sequence[float], y: Sequence[float],
                   bin_width: float) -> List[Tuple[float, float]]:
    """Median of ``y`` per ``x`` bin; returns (bin_center, median) pairs.

    Bins with no samples are omitted.  This is how Figure 5's per-RTT
    median curves are computed.
    """
    if len(x) != len(y):
        raise ValueError("x and y must be the same length")
    if bin_width <= 0:
        raise ValueError("bin_width must be positive")
    buckets: Dict[int, List[float]] = {}
    for xi, yi in zip(x, y):
        buckets.setdefault(int(xi // bin_width), []).append(yi)
    return [((index + 0.5) * bin_width, median(values))
            for index, values in sorted(buckets.items())]


@dataclass(frozen=True)
class LinearFit:
    """Ordinary least-squares line fit ``y = slope * x + intercept``."""

    slope: float
    intercept: float
    r_squared: float
    n: int


def linear_fit(x: Sequence[float], y: Sequence[float]) -> LinearFit:
    """Least-squares fit; raises for fewer than two distinct x values."""
    if len(x) != len(y):
        raise ValueError("x and y must be the same length")
    if len(x) < 2:
        raise ValueError("need at least two points to fit a line")
    xs, ys = _floats(x), _floats(y)
    spread = max(xs) - min(xs)
    scale = max(abs(v) for v in xs)
    if spread == 0.0 or spread < 1e-12 * max(1.0, scale):
        raise ValueError("x values are (numerically) all identical")
    x_mean, y_mean = _mean(xs), _mean(ys)
    dx = [v - x_mean for v in xs]
    dy = [v - y_mean for v in ys]
    slope = (_sum([a * b for a, b in zip(dx, dy)])
             / _sum([a * a for a in dx]))
    intercept = y_mean - slope * x_mean
    residuals = [v - (slope * u + intercept) for u, v in zip(xs, ys)]
    ss_res = _sum([r * r for r in residuals])
    ss_tot = _sum([d * d for d in dy])
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return LinearFit(slope, intercept, r_squared, len(x))


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Mean / median / std / spread summary used by comparison tables."""
    if len(values) == 0:
        raise ValueError("summary of empty sequence")
    xs = _floats(values)
    ordered = sorted(xs)
    n = len(xs)
    mean = _mean(xs)
    std = 0.0
    if n > 1:
        std = math.sqrt(_sum([(v - mean) * (v - mean) for v in xs])
                        / (n - 1))
    return {
        "n": float(n),
        "mean": mean,
        "median": _median_sorted(ordered),
        "std": std,
        "p10": _percentile_sorted(ordered, 10),
        "p90": _percentile_sorted(ordered, 90),
        "min": ordered[0],
        "max": ordered[-1],
    }


# ----------------------------------------------------------------------
# two-sample Kolmogorov-Smirnov test
# ----------------------------------------------------------------------
def ks_2samp(a: Sequence[float], b: Sequence[float]) -> Tuple[float, float]:
    """Two-sided two-sample KS test: ``(statistic, p_value)``, exact.

    The statistic D is the largest gap between the two empirical CDFs,
    rounded to the lattice of steps ``1 / lcm(n1, n2)`` it lies on, as
    scipy rounds it; the p-value is P(D' >= D) under the null.
    """
    first, second = sorted(_floats(a)), sorted(_floats(b))
    n1, n2 = len(first), len(second)
    if n1 == 0 or n2 == 0:
        raise ValueError("ks_2samp needs two non-empty samples")
    gap = 0.0
    for value in first + second:
        gap = max(gap, abs(bisect_right(first, value) / n1
                           - bisect_right(second, value) / n2))
    g = math.gcd(n1, n2)
    lcm = (n1 // g) * n2
    h = round(gap * lcm)
    statistic = h / lcm
    if h <= 1:
        # P(D >= 0) = 1; and every lattice path leaves the band one step
        # wide at its first step, so P(D >= 1/lcm) = 1 too (scipy's
        # recurrence overshoots 1 there and it falls back to an
        # asymptotic value).
        return statistic, 1.0
    if n1 == n2:
        return statistic, _ks_prob_outside_square(n1, h)
    total = math.comb(n1 + n2, n1)
    return statistic, (total - _ks_paths_inside(n1, n2, h * g)) / total


def _ks_prob_outside_square(n: int, h: int) -> float:
    """P(D >= h/n) for two samples of size n: scipy's Horner-like
    recurrence ``2 * A0 * (1 - A1 * (1 - A2 * (...)))``, float for
    float."""
    p = 0.0
    k = n // h
    while k >= 0:
        term = 1.0
        for j in range(h):
            term = (n - k * h - j) * term / (n + k * h + j + 1)
        p = term * (1.0 - p)
        k -= 1
    return 2 * p


def _ks_paths_inside(m: int, n: int, bound: int) -> int:
    """Lattice paths from (0, 0) to (m, n), one step right or up at a
    time, with ``|i * n - j * m| < bound`` at every point (i, j)."""
    column = [1] + [0] * n  # paths to (i, j) for the current i
    low = 0
    for i in range(m + 1):
        # The band's rows at this column; both ends only ever rise.
        new_low = max((i * n - bound) // m + 1, 0)
        high = min(-(-(i * n + bound) // m) - 1, n)
        for j in range(low, new_low):
            column[j] = 0
        low = new_low
        for j in range(max(low, 1), high + 1):
            column[j] += column[j - 1]
    return column[n]


# ----------------------------------------------------------------------
# Spearman rank correlation
# ----------------------------------------------------------------------
def spearmanr(x: Sequence[float],
              y: Sequence[float]) -> Tuple[float, float]:
    """Spearman's rho and its two-sided p-value: ``(rho, p_value)``.

    Constant input, NaN or fewer than two pairs give ``(nan, nan)``;
    two pairs give ``(rho, nan)``.
    """
    xs, ys = _floats(x), _floats(y)
    if len(xs) != len(ys):
        raise ValueError("x and y must be the same length")
    n = len(xs)
    if (n <= 1 or any(math.isnan(v) for v in xs + ys)
            or all(v == xs[0] for v in xs) or all(v == ys[0] for v in ys)):
        return math.nan, math.nan
    rank_x, rank_y = _average_ranks(xs), _average_ranks(ys)
    mean_x, mean_y = _mean(rank_x), _mean(rank_y)
    dx = [r - mean_x for r in rank_x]
    dy = [r - mean_y for r in rank_y]
    # Ranks are multiples of 1/2, so every sum is exact; the scaling and
    # the two divisions follow numpy.corrcoef.
    scale = 1 / (n - 1)
    cov_xy = _sum([a * b for a, b in zip(dy, dx)]) * scale
    var_x = _sum([a * a for a in dx]) * scale
    var_y = _sum([b * b for b in dy]) * scale
    rho = cov_xy / math.sqrt(var_y) / math.sqrt(var_x)
    rho = min(max(rho, -1.0), 1.0)
    dof = n - 2
    if dof == 0:
        return rho, math.nan
    if abs(rho) == 1.0:
        return rho, 0.0  # t is infinite
    t = rho * math.sqrt(dof / ((rho + 1.0) * (1.0 - rho)))
    return rho, _student_t_two_sided(t, dof)


def _average_ranks(values: Sequence[float]) -> List[float]:
    """1-based ranks, ties sharing the mean of their positions."""
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    start = 0
    while start < len(order):
        end = start
        while (end + 1 < len(order)
               and values[order[end + 1]] == values[order[start]]):
            end += 1
        for position in range(start, end + 1):
            ranks[order[position]] = (start + end + 2) / 2
        start = end + 1
    return ranks


def _student_t_two_sided(t: float, dof: int) -> float:
    """P(|T| >= |t|) for Student's t with ``dof`` degrees of freedom:
    the regularized incomplete beta I_x(dof/2, 1/2) at
    x = dof / (dof + t^2), from whichever tail converges."""
    a, b = dof / 2, 0.5
    x = dof / (dof + t * t)
    y = t * t / (dof + t * t)  # 1 - x, without the cancellation
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log(y)) if y else 0.0
    if x < (a + 1) / (a + b + 2):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, y) / b


def _betacf(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b), by the modified Lentz
    method."""
    tiny = 1e-300
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    result = d
    for m in range(1, 10_000):
        for numerator in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                          -(a + m) * (a + b + m) * x
                          / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            result *= d * c
        if abs(d * c - 1.0) <= 2.0 ** -52:
            return result
    raise ArithmeticError("incomplete beta continued fraction did not "
                          "converge (a=%r, b=%r, x=%r)" % (a, b, x))
