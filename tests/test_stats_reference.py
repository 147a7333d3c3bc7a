"""repro.analysis.stats against the numpy and scipy calls it replaces.

The pure-Python statistics promise numpy's and scipy's own arithmetic
(see the module docstring): equal floats for the order statistics,
sums, the KS statistic, the equal-size KS p-value and Spearman's rho;
tight relative bounds where the reference's algorithm cannot be
reproduced (LAPACK's least squares, scipy's float lattice recurrence,
its incomplete beta).  numpy and scipy are development-only references,
so this module is skipped where they are not installed.
"""

import math
import warnings

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.analysis import stats

np = pytest.importorskip("numpy")
scipy_stats = pytest.importorskip("scipy.stats")

#: A small pool makes ties common; the wide range exercises rounding.
values = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 7.25]),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
              allow_subnormal=False))
samples = st.lists(values, min_size=1, max_size=300)
ks_samples = st.lists(values, min_size=1, max_size=60)


def np_box_stats(xs):
    """The numpy formulation box_stats had."""
    arr = np.asarray(xs, dtype=float)
    q1, q2, q3 = (float(np.percentile(arr, q)) for q in (25, 50, 75))
    iqr = q3 - q1
    low = min(float(arr[arr >= q1 - 1.5 * iqr].min()), q1)
    high = max(float(arr[arr <= q3 + 1.5 * iqr].max()), q3)
    return stats.BoxStats(low, q1, q2, q3, high)


def np_summary(xs):
    """The numpy formulation summary had."""
    arr = np.asarray(xs, dtype=float)
    return {
        "n": float(len(arr)),
        "mean": float(arr.mean()),
        "median": float(np.median(arr)),
        "std": float(arr.std(ddof=1)) if len(arr) > 1 else 0.0,
        "p10": float(np.percentile(arr, 10)),
        "p90": float(np.percentile(arr, 90)),
        "min": float(arr.min()),
        "max": float(arr.max()),
    }


def same_float(got, want):
    """Equal as floats, with NaN equal to NaN."""
    return (math.isnan(got) and math.isnan(want)) or got == want


@given(samples)
@settings(max_examples=300, deadline=None)
@example([1.0])
@example([2.0, 1.0])
@example([3.0] * 9)
def test_order_statistics_equal_numpy(xs):
    arr = np.asarray(xs, dtype=float)
    assert stats.median(xs) == float(np.median(arr))
    for q in (10, 25, 50, 75, 90):
        assert stats.percentile(xs, q) == float(np.percentile(arr, q))
    assert stats.box_stats(xs) == np_box_stats(xs)
    assert stats.summary(xs) == np_summary(xs)


@given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=0.3),
                          values), min_size=1, max_size=200))
@settings(max_examples=150, deadline=None)
def test_binned_medians_equal_numpy(points):
    x = [p[0] for p in points]
    y = [p[1] for p in points]
    bins = {}
    for xi, yi in points:
        bins.setdefault(int(xi // 0.02), []).append(yi)
    want = [((index + 0.5) * 0.02, float(np.median(np.asarray(ys))))
            for index, ys in sorted(bins.items())]
    assert stats.binned_medians(x, y, 0.02) == want


def lattice_steps(a, b, statistic):
    g = math.gcd(len(a), len(b))
    return round(statistic * (len(a) // g) * len(b))


def scipy_ks(a, b):
    with warnings.catch_warnings():
        # scipy warns when it leaves its exact method (the h = 1 case).
        warnings.simplefilter("ignore", RuntimeWarning)
        result = scipy_stats.ks_2samp(a, b)
    return float(result.statistic), float(result.pvalue)


@given(ks_samples, ks_samples, st.floats(min_value=0.0, max_value=2.0))
@settings(max_examples=300, deadline=None)
def test_ks_matches_scipy(a, b, shift):
    b = [v + shift for v in b]
    statistic, p = stats.ks_2samp(a, b)
    want_statistic, want_p = scipy_ks(a, b)
    assert statistic == want_statistic
    assume(lattice_steps(a, b, statistic) != 1)
    if len(a) == len(b):
        assert p == want_p
    else:
        assert p == pytest.approx(want_p, rel=1e-12, abs=0)


@given(st.integers(min_value=1, max_value=60),
       st.data())
@settings(max_examples=100, deadline=None)
def test_ks_equal_sizes_match_scipy_bit_for_bit(n, data):
    a = data.draw(st.lists(values, min_size=n, max_size=n))
    b = data.draw(st.lists(values, min_size=n, max_size=n))
    statistic, p = stats.ks_2samp(a, b)
    assume(lattice_steps(a, b, statistic) != 1)
    assert (statistic, p) == scipy_ks(a, b)


def test_ks_one_lattice_step_is_certain():
    """D = 1/lcm: every path leaves the one-step band, so p is exactly
    1, where scipy's recurrence overshoots and it reports an asymptotic
    value instead."""
    a = [float(i) for i in range(10)]
    b = a[:9] + [9.5]
    statistic, p = stats.ks_2samp(a, b)
    assert statistic == 0.1
    assert p == 1.0
    assert scipy_ks(a, b)[0] == statistic
    # Unequal sizes reach one step only through ties: D = 1/4 = 1/lcm.
    assert stats.ks_2samp([1.0, 1.0, 2.0, 3.0], [1.0, 3.0]) == (0.25, 1.0)


def test_ks_identical_and_disjoint_samples():
    assert stats.ks_2samp([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == (0.0, 1.0)
    statistic, p = stats.ks_2samp([1.0, 2.0, 3.0], [4.0, 5.0, 6.0, 7.0])
    assert (statistic, p) == pytest.approx(scipy_ks(
        [1.0, 2.0, 3.0], [4.0, 5.0, 6.0, 7.0]), rel=1e-12)
    with pytest.raises(ValueError):
        stats.ks_2samp([], [1.0])


def scipy_spearman(x, y):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # constant input
        result = scipy_stats.spearmanr(x, y)
    return float(result.statistic), float(result.pvalue)


@given(st.integers(min_value=1, max_value=60), st.data())
@settings(max_examples=200, deadline=None)
def test_spearman_matches_scipy(n, data):
    x = data.draw(st.lists(values, min_size=n, max_size=n))
    y = data.draw(st.lists(values, min_size=n, max_size=n))
    rho, p = stats.spearmanr(x, y)
    want_rho, want_p = scipy_spearman(x, y)
    assert same_float(rho, want_rho)
    if math.isnan(want_p):
        assert math.isnan(p)
    else:
        # abs: near rho = +-1 scipy underflows to 0 below ~1e-308.
        assert p == pytest.approx(want_p, rel=1e-10, abs=1e-300)


def test_spearman_edge_cases():
    for x, y in (([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]),  # constant input
                 ([1.0], [2.0]),
                 ([1.0, 2.0], [3.0, 1.0])):
        rho, p = stats.spearmanr(x, y)
        want_rho, want_p = scipy_spearman(x, y)
        assert same_float(rho, want_rho) and same_float(p, want_p)
    assert math.isnan(stats.spearmanr([1.0, 2.0], [3.0, 1.0])[1])
    assert stats.spearmanr([1, 2, 3, 4], [10, 20, 30, 40]) == (1.0, 0.0)
    with pytest.raises(ValueError):
        stats.spearmanr([1.0, 2.0], [1.0])


@given(st.lists(st.tuples(st.floats(min_value=0.001, max_value=0.3),
                          st.floats(min_value=-0.005, max_value=0.005)),
                min_size=2, max_size=200),
       st.floats(min_value=0.01, max_value=0.5),
       st.floats(min_value=0.5, max_value=8.0))
@settings(max_examples=200, deadline=None)
def test_linear_fit_matches_polyfit(points, intercept, slope):
    """Fig. 9's shape: Tdynamic = Tproc + C * RTTbe, plus noise.  The
    probed RTTs span tens of ms; over a much narrower span the fit is
    ill-conditioned and either method's rounding shows."""
    x = [p[0] for p in points]
    assume(max(x) - min(x) > 0.05)
    y = [intercept + slope * xi + noise for xi, noise in points]
    fit = stats.linear_fit(x, y)
    arr_x, arr_y = np.asarray(x), np.asarray(y)
    want_slope, want_intercept = np.polyfit(arr_x, arr_y, 1)
    predicted = want_slope * arr_x + want_intercept
    ss_res = float(np.sum((arr_y - predicted) ** 2))
    ss_tot = float(np.sum((arr_y - arr_y.mean()) ** 2))
    want_r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    assert fit.slope == pytest.approx(want_slope, rel=1e-10)
    assert fit.intercept == pytest.approx(want_intercept, rel=1e-10)
    assert fit.r_squared == pytest.approx(want_r2, rel=1e-10)
    assert fit.n == len(x)
