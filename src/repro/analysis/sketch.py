"""Deterministic, mergeable quantile sketches for streaming campaigns.

A million-query campaign cannot keep per-session latency lists around
(see :mod:`repro.measure.streaming`), yet the paper-style reporting
needs percentile tails (p50/p95/p99).  :class:`QuantileSketch` is the
bounded-memory substitute: a fixed-bound *log-bucket* histogram whose
buckets subdivide each power-of-two range (binade) linearly.

Design rules, matching the obs metrics registry
(:mod:`repro.obs.metrics`):

* **Exact, order-independent merging.**  Bucket counts are integers and
  the running sum is a :class:`fractions.Fraction`, so
  ``a + b == b + a`` and any sharding of an observation stream merges
  to the bit-identical serial sketch.
* **No transcendental bucketing.**  Bucket indices come from
  :func:`math.frexp` (exact) plus integer arithmetic on the mantissa —
  never ``log``.  Two processes computing the bucket of the same float
  agree everywhere, which is what lets serial and sharded campaign
  runs compare sketch *fingerprints* byte-for-byte.
* **Bounded size.**  The number of occupied buckets is at most
  ``subbuckets`` per binade touched; durations and byte sizes span a
  handful of binades, so a sketch stays a few kilobytes no matter how
  many observations it absorbs.

The quantile rule is nearest-rank on the bucket CDF: ``quantile(q)``
returns the midpoint of the bucket containing the sorted observation
at index ``floor(q * (count - 1))``, so the returned value is within a
relative ``1 / (2 * subbuckets)`` of that exact observation (1/256 ≈
0.4% at the default resolution).
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction
from typing import Dict, Iterable, Optional

__all__ = ["QuantileSketch", "merge_sketches"]

#: Default linear subdivisions per binade; relative error = 1/(2*128).
DEFAULT_SUBBUCKETS = 128


class QuantileSketch:
    """A mergeable log-bucket quantile sketch over non-negative floats.

    >>> sketch = QuantileSketch()
    >>> for value in (0.1, 0.2, 0.4, 0.8):
    ...     sketch.observe(value)
    >>> abs(sketch.quantile(0.5) - 0.2) <= 0.2 / (2 * sketch.subbuckets)
    True
    """

    __slots__ = ("subbuckets", "counts", "count", "zeros", "total",
                 "minimum", "maximum")

    def __init__(self, subbuckets: int = DEFAULT_SUBBUCKETS):
        if subbuckets < 1:
            raise ValueError("subbuckets must be >= 1, got %r"
                             % (subbuckets,))
        self.subbuckets = subbuckets
        #: bucket index -> observation count; index encodes
        #: (binade exponent, linear sub-bucket) as one integer.
        self.counts: Dict[int, int] = {}
        self.count = 0
        self.zeros = 0
        self.total = Fraction(0)
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None

    # ------------------------------------------------------------------
    # observe / merge
    # ------------------------------------------------------------------
    def _bucket(self, value: float) -> int:
        # frexp: value == mantissa * 2**exponent with mantissa in
        # [0.5, 1).  The sub-bucket is the mantissa's position in a
        # linear grid over the binade — exact float arithmetic (powers
        # of two only), no logarithms.
        mantissa, exponent = math.frexp(value)
        sub = int((mantissa - 0.5) * (2 * self.subbuckets))
        if sub == self.subbuckets:  # mantissa rounded up to 1.0
            sub = self.subbuckets - 1
        return exponent * self.subbuckets + sub

    def _bucket_midpoint(self, bucket: int) -> float:
        exponent, sub = divmod(bucket, self.subbuckets)
        return math.ldexp(0.5 + (2 * sub + 1) / (4.0 * self.subbuckets),
                          exponent)

    def observe(self, value: float) -> None:
        """Fold one observation in (values must be >= 0 and finite)."""
        if not (value >= 0.0) or math.isinf(value):
            raise ValueError("sketch values must be finite and >= 0, "
                             "got %r" % (value,))
        if value == 0.0:
            self.zeros += 1
        else:
            bucket = self._bucket(value)
            self.counts[bucket] = self.counts.get(bucket, 0) + 1
        self.count += 1
        self.total += Fraction(value)
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    def merge(self, other: "QuantileSketch") -> None:
        """Fold ``other`` into this sketch (exact, order-independent)."""
        if other.subbuckets != self.subbuckets:
            raise ValueError(
                "cannot merge sketches with different resolutions: "
                "%d vs %d sub-buckets"
                % (self.subbuckets, other.subbuckets))
        for bucket, count in other.counts.items():
            self.counts[bucket] = self.counts.get(bucket, 0) + count
        self.count += other.count
        self.zeros += other.zeros
        self.total += other.total
        if other.minimum is not None:
            if self.minimum is None or other.minimum < self.minimum:
                self.minimum = other.minimum
        if other.maximum is not None:
            if self.maximum is None or other.maximum > self.maximum:
                self.maximum = other.maximum

    def __add__(self, other: "QuantileSketch") -> "QuantileSketch":
        merged = QuantileSketch(self.subbuckets)
        merged.merge(self)
        merged.merge(other)
        return merged

    # ------------------------------------------------------------------
    # read side
    # ------------------------------------------------------------------
    @property
    def mean(self) -> Optional[float]:
        if self.count == 0:
            return None
        return float(self.total / self.count)

    def quantile(self, q: float) -> Optional[float]:
        """The value at quantile ``q`` in [0, 1] (None when empty).

        ``q=0``/``q=1`` return the exact tracked minimum/maximum;
        interior quantiles return the midpoint of the bucket holding
        the nearest-rank observation (see the module docstring for the
        error bound).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1], got %r" % (q,))
        if self.count == 0:
            return None
        if q == 0.0:
            return self.minimum
        if q == 1.0:
            return self.maximum
        target = int(q * (self.count - 1))
        if target < self.zeros:
            return 0.0
        cumulative = self.zeros
        for bucket in sorted(self.counts):
            cumulative += self.counts[bucket]
            if cumulative > target:
                # Clamp to the exact tracked extremes so quantiles are
                # monotone in q even when an extreme observation sits
                # off-center in its bucket.
                midpoint = self._bucket_midpoint(bucket)
                return min(max(midpoint, self.minimum), self.maximum)
        return self.maximum  # unreachable; guards float edge cases

    # ------------------------------------------------------------------
    # state / fingerprint
    # ------------------------------------------------------------------
    def state(self) -> dict:
        """A picklable, canonical copy of the sketch state."""
        return {"subbuckets": self.subbuckets,
                "counts": tuple(sorted(self.counts.items())),
                "zeros": self.zeros,
                "count": self.count,
                "total": self.total,
                "min": self.minimum,
                "max": self.maximum}

    def fingerprint(self) -> str:
        """SHA-256 over the canonical state (bit-comparable across
        processes: floats are rendered with ``float.hex``)."""
        digest = hashlib.sha256()
        digest.update(b"quantile-sketch/v1\n")
        digest.update(("subbuckets=%d\n" % self.subbuckets).encode())
        for bucket, count in sorted(self.counts.items()):
            digest.update(("%d:%d\n" % (bucket, count)).encode())
        digest.update(("zeros=%d count=%d\n"
                       % (self.zeros, self.count)).encode())
        digest.update(("total=%d/%d\n" % (self.total.numerator,
                                          self.total.denominator))
                      .encode())
        for label, value in (("min", self.minimum), ("max", self.maximum)):
            rendered = "none" if value is None else float(value).hex()
            digest.update(("%s=%s\n" % (label, rendered)).encode())
        return digest.hexdigest()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuantileSketch):
            return NotImplemented
        return self.state() == other.state()

    def __repr__(self) -> str:
        return ("QuantileSketch(count=%d, min=%r, max=%r, buckets=%d)"
                % (self.count, self.minimum, self.maximum,
                   len(self.counts)))


def merge_sketches(sketches: Iterable[QuantileSketch]) -> QuantileSketch:
    """Exact merge of any number of sketches (empty input allowed)."""
    sketches = list(sketches)
    merged = QuantileSketch(sketches[0].subbuckets if sketches
                            else DEFAULT_SUBBUCKETS)
    for sketch in sketches:
        merged.merge(sketch)
    return merged
