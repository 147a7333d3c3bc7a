"""Tests for the mergeable online quantile sketch (analysis.sketch)."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.sketch import QuantileSketch, merge_sketches

values = st.floats(min_value=0.0, max_value=1e9, allow_nan=False,
                   allow_infinity=False)
value_lists = st.lists(values, min_size=1, max_size=60)


def _filled(samples, subbuckets=128):
    sketch = QuantileSketch(subbuckets=subbuckets)
    for sample in samples:
        sketch.observe(sample)
    return sketch


# ---------------------------------------------------------------------------
# basics
# ---------------------------------------------------------------------------
def test_empty_sketch():
    sketch = QuantileSketch()
    assert sketch.count == 0
    assert sketch.quantile(0.5) is None
    assert sketch.mean is None


def test_rejects_bad_values():
    sketch = QuantileSketch()
    for bad in (-1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            sketch.observe(bad)


def test_extremes_are_exact():
    sketch = _filled([0.25, 3.0, 7.5, 0.125])
    assert sketch.quantile(0.0) == 0.125
    assert sketch.quantile(1.0) == 7.5


def test_zero_values_have_their_own_bucket():
    sketch = _filled([0.0, 0.0, 5.0])
    assert sketch.quantile(0.0) == 0.0
    assert sketch.quantile(0.5) == 0.0
    assert sketch.count == 3


def test_mean_is_exact():
    samples = [0.1, 0.2, 0.3, 0.4]
    assert _filled(samples).mean == pytest.approx(sum(samples) / 4)


def test_equal_sketches_share_a_fingerprint():
    sketch = _filled([0.5, 1.5, 2.5, 0.5])
    clone = _filled([0.5, 1.5, 2.5, 0.5])
    assert clone == sketch
    assert clone.fingerprint() == sketch.fingerprint()
    clone.observe(9.0)
    assert clone.fingerprint() != sketch.fingerprint()


def test_merge_requires_matching_resolution():
    with pytest.raises(ValueError):
        QuantileSketch(subbuckets=64).merge(QuantileSketch(subbuckets=128))


# ---------------------------------------------------------------------------
# property tests: merge algebra and the rank-error bound
# ---------------------------------------------------------------------------
@given(a=value_lists, b=value_lists)
@settings(max_examples=60, deadline=None)
def test_merge_commutes(a, b):
    ab = _filled(a) + _filled(b)
    ba = _filled(b) + _filled(a)
    assert ab == ba
    assert ab.fingerprint() == ba.fingerprint()


@given(a=value_lists, b=value_lists, c=value_lists)
@settings(max_examples=60, deadline=None)
def test_merge_associates(a, b, c):
    left = (_filled(a) + _filled(b)) + _filled(c)
    right = _filled(a) + (_filled(b) + _filled(c))
    assert left == right
    assert left.fingerprint() == right.fingerprint()


@given(a=value_lists, b=value_lists)
@settings(max_examples=60, deadline=None)
def test_merge_equals_union(a, b):
    merged = _filled(a) + _filled(b)
    union = _filled(a + b)
    assert merged == union


@given(samples=value_lists,
       q=st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=120, deadline=None)
def test_quantile_relative_error_bound(samples, q):
    sketch = _filled(samples)
    estimate = sketch.quantile(q)
    # Nearest-rank ground truth, matching the sketch's rank rule.
    exact = sorted(samples)[int(q * (len(samples) - 1))]
    if exact == 0.0:
        assert estimate == 0.0
        return
    # The estimate is the midpoint of the log-bucket holding a value of
    # the same rank; buckets are rank-exact, so only the within-bucket
    # midpoint error (bounded by the relative resolution) remains.
    assert estimate > 0.0
    assert abs(estimate - exact) / exact <= 1.0 / (2 * sketch.subbuckets) \
        + 1e-12


@given(samples=st.lists(values, min_size=2, max_size=40))
@settings(max_examples=60, deadline=None)
def test_quantiles_monotone_in_q(samples):
    sketch = _filled(samples)
    quantiles = [sketch.quantile(q)
                 for q in (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)]
    assert quantiles == sorted(quantiles)


@given(shards=st.lists(value_lists, min_size=1, max_size=5))
@settings(max_examples=40, deadline=None)
def test_merge_sketches_order_independent(shards):
    forward = merge_sketches([_filled(shard) for shard in shards])
    backward = merge_sketches([_filled(shard)
                               for shard in reversed(shards)])
    assert forward == backward
    flat = _filled([sample for shard in shards for sample in shard])
    assert forward == flat


def test_bucket_midpoint_spans_all_magnitudes():
    # Tiny through huge magnitudes must land in a bucket whose midpoint
    # stays within the advertised relative error.
    for exponent in range(-300, 300, 37):
        value = math.ldexp(1.3, exponent)
        single = QuantileSketch()
        single.observe(value)
        mid = single.quantile(0.5)
        assert abs(mid - value) / value <= 1.0 / (2 * single.subbuckets)
