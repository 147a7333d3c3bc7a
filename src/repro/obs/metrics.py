"""Deterministic metrics: counters, gauges, and histograms.

The registry is the numeric half of the observability subsystem
(:mod:`repro.obs`): instrumentation sites increment named counters,
record high-watermark gauges, and feed histograms; campaigns snapshot
the registry of their own capture and shard workers ship snapshots
back for merging.

Two properties drive the design:

* **Exact, order-independent merging.**  Counters and histogram bucket
  counts are integers; histogram sums accumulate as
  :class:`fractions.Fraction` so that ``merge([a, b])`` and
  ``merge([b, a])`` — and a serial run versus any sharding of it —
  export bit-identical values.  (Float addition is not associative;
  exact rationals are.)
* **Scopes.**  Every metric is tagged ``sim`` or ``host``.  Sim-scope
  metrics are functions of the simulated world only (session counts,
  durations, FE peaks) and must merge to the serial values under
  sharding; host-scope metrics describe *this process's* work (engine
  events, replay hits, TCP retransmits) and legitimately differ per
  shard — e.g. connection warm-up is re-simulated in every shard.

Nothing here reads clocks, entropy, or hash order; the module passes
the simlint determinism pack unsuppressed.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

#: Metric scopes (see module docstring).
SCOPE_SIM = "sim"
SCOPE_HOST = "host"

#: Default histogram bounds: seconds, spanning RTT-ish to campaign-ish;
#: session durations use them.
DEFAULT_BOUNDS = (0.05, 0.1, 0.2, 0.3, 0.5, 0.75, 1.0, 1.5, 2.0, 5.0)

#: Histogram bounds for response sizes (bytes).
SIZE_BOUNDS = (4_096, 16_384, 32_768, 65_536, 131_072, 262_144)


class Histogram:
    """Fixed-bound histogram with an exact (Fraction) sum.

    Bucket ``i`` counts observations ``<= bounds[i]``; one overflow
    bucket catches the rest.  ``total`` is kept as an exact rational so
    merge order can never change the exported sum.
    """

    __slots__ = ("bounds", "counts", "count", "total", "minimum",
                 "maximum")

    def __init__(self, bounds: Sequence[float] = DEFAULT_BOUNDS):
        self.bounds: Tuple[float, ...] = tuple(bounds)
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = Fraction(0)
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += Fraction(value)
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> Optional[float]:
        if self.count == 0:
            return None
        return float(self.total / self.count)

    def state(self) -> dict:
        """An immutable-ish, picklable copy of the histogram state."""
        return {"bounds": self.bounds, "counts": tuple(self.counts),
                "count": self.count, "total": self.total,
                "min": self.minimum, "max": self.maximum}

    @classmethod
    def from_state(cls, state: dict) -> "Histogram":
        hist = cls(state["bounds"])
        hist.counts = list(state["counts"])
        hist.count = state["count"]
        hist.total = Fraction(state["total"])
        hist.minimum = state["min"]
        hist.maximum = state["max"]
        return hist


def _merge_hist_states(states: Sequence[dict]) -> dict:
    bounds = states[0]["bounds"]
    for state in states[1:]:
        if state["bounds"] != bounds:
            raise ValueError("cannot merge histograms with different "
                             "bounds: %r vs %r" % (bounds, state["bounds"]))
    counts = [0] * (len(bounds) + 1)
    count, total = 0, Fraction(0)
    minimum = maximum = None
    for state in states:
        for i, c in enumerate(state["counts"]):
            counts[i] += c
        count += state["count"]
        total += state["total"]
        if state["min"] is not None:
            minimum = state["min"] if minimum is None \
                else min(minimum, state["min"])
        if state["max"] is not None:
            maximum = state["max"] if maximum is None \
                else max(maximum, state["max"])
    return {"bounds": bounds, "counts": tuple(counts), "count": count,
            "total": total, "min": minimum, "max": maximum}


class MetricsSnapshot:
    """A picklable copy of a registry's state at one instant.

    Snapshots are what crosses process boundaries: shard workers return
    them and :meth:`merge` aggregates them.
    """

    __slots__ = ("counters", "gauges", "histograms", "scopes")

    def __init__(self, counters: Dict[str, int],
                 gauges: Dict[str, float],
                 histograms: Dict[str, dict],
                 scopes: Dict[str, str]):
        self.counters = counters
        self.gauges = gauges
        self.histograms = histograms
        self.scopes = scopes

    @classmethod
    def empty(cls) -> "MetricsSnapshot":
        return cls({}, {}, {}, {})

    @classmethod
    def merge(cls, snapshots: Sequence["MetricsSnapshot"]
              ) -> "MetricsSnapshot":
        """Order-independent aggregate: counters add, gauges take the
        max (they are high-watermarks), histograms add exactly."""
        counters: Dict[str, int] = {}
        gauges: Dict[str, float] = {}
        hist_states: Dict[str, List[dict]] = {}
        scopes: Dict[str, str] = {}
        for snap in snapshots:
            for name, value in snap.counters.items():
                counters[name] = counters.get(name, 0) + value
            for name, value in snap.gauges.items():
                gauges[name] = max(gauges.get(name, value), value)
            for name, state in snap.histograms.items():
                hist_states.setdefault(name, []).append(state)
            scopes.update(snap.scopes)
        histograms = {name: _merge_hist_states(states)
                      for name, states in hist_states.items()}
        return cls(counters, gauges, histograms, scopes)

    def scoped(self, scope: str) -> "MetricsSnapshot":
        """Only the metrics tagged with ``scope`` (``sim``/``host``)."""
        keep = lambda name: self.scopes.get(name) == scope
        return MetricsSnapshot(
            {n: v for n, v in self.counters.items() if keep(n)},
            {n: v for n, v in self.gauges.items() if keep(n)},
            {n: v for n, v in self.histograms.items() if keep(n)},
            {n: s for n, s in self.scopes.items() if keep(n)})

    def as_records(self) -> List[dict]:
        """JSON-ready metric records, sorted by (type, name).

        Histogram sums are exported as ``float(total)`` — the nearest
        double of an exact rational, hence identical no matter what
        order the underlying observations merged in.
        """
        records = []
        for name in sorted(self.counters):
            records.append({"kind": "metric", "type": "counter",
                            "name": name,
                            "scope": self.scopes.get(name, SCOPE_HOST),
                            "value": self.counters[name]})
        for name in sorted(self.gauges):
            records.append({"kind": "metric", "type": "gauge",
                            "name": name,
                            "scope": self.scopes.get(name, SCOPE_HOST),
                            "value": self.gauges[name]})
        for name in sorted(self.histograms):
            state = self.histograms[name]
            records.append({"kind": "metric", "type": "histogram",
                            "name": name,
                            "scope": self.scopes.get(name, SCOPE_HOST),
                            "count": state["count"],
                            "sum": float(state["total"]),
                            "min": state["min"], "max": state["max"],
                            "bounds": list(state["bounds"]),
                            "counts": list(state["counts"])})
        return records


class MetricsRegistry:
    """The live, mutable registry instrumentation sites write into."""

    def __init__(self):
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._scopes: Dict[str, str] = {}

    # -- write paths ---------------------------------------------------
    def inc(self, name: str, value: int = 1,
            scope: str = SCOPE_HOST) -> None:
        """Add ``value`` to a counter; adding 0 records nothing, so a
        snapshot lists only the counters that moved."""
        if not value:
            return
        self._counters[name] = self._counters.get(name, 0) + value
        self._scopes.setdefault(name, scope)

    def gauge_max(self, name: str, value: float,
                  scope: str = SCOPE_HOST) -> None:
        """Record a high-watermark gauge (merge semantics: max)."""
        current = self._gauges.get(name)
        if current is None or value > current:
            self._gauges[name] = value
        self._scopes.setdefault(name, scope)

    def observe(self, name: str, value: float,
                bounds: Optional[Sequence[float]] = None,
                scope: str = SCOPE_HOST) -> None:
        hist = self._histograms.get(name)
        if hist is None:
            hist = Histogram(bounds if bounds is not None
                             else DEFAULT_BOUNDS)
            self._histograms[name] = hist
            self._scopes.setdefault(name, scope)
        hist.observe(value)

    # -- snapshot protocol ---------------------------------------------
    def snapshot(self) -> MetricsSnapshot:
        return MetricsSnapshot(
            dict(self._counters), dict(self._gauges),
            {name: hist.state()
             for name, hist in self._histograms.items()},
            dict(self._scopes))

    def absorb(self, snapshot: MetricsSnapshot) -> None:
        """Merge a (capture's or shard's) snapshot into the live state."""
        for name, value in snapshot.counters.items():
            self.inc(name, value, snapshot.scopes.get(name, SCOPE_HOST))
        for name, value in snapshot.gauges.items():
            self.gauge_max(name, value,
                           snapshot.scopes.get(name, SCOPE_HOST))
        for name, state in snapshot.histograms.items():
            hist = self._histograms.get(name)
            if hist is None:
                self._histograms[name] = Histogram.from_state(state)
                self._scopes.setdefault(
                    name, snapshot.scopes.get(name, SCOPE_HOST))
            else:
                merged = _merge_hist_states([hist.state(), state])
                self._histograms[name] = Histogram.from_state(merged)

    def clear(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
        self._scopes.clear()
