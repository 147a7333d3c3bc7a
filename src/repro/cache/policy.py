"""Byte-capacity content cache with pluggable eviction and admission.

:class:`ContentCache` stores opaque objects under string keys, charges
each against a byte budget, and evicts according to the policy named in
its :class:`~repro.cache.spec.CacheSpec`:

``infinite``
    Never evicts (the unbounded-dict degenerate case the repo shipped
    with); ``lookup`` misses until the key is inserted.
``lru``
    Evicts the least recently *used* entry.  Implemented on dict
    insertion order: hits and inserts move the entry to the tail, so
    the head is always the LRU victim — O(1).
``lfu``
    Evicts the least frequently used entry, oldest-inserted first on
    ties (deterministic; O(n) scan per eviction).
``fifo``
    Evicts the oldest-inserted entry regardless of use (O(n) scan —
    hits reorder the dict for LRU, so insertion age lives on the
    entry).
``random``
    Evicts a uniformly random entry, drawn from a ``derive_seed``-keyed
    stream so the victim sequence is a pure function of (cache seed,
    cache name, eviction ordinal) — independent of any other RNG in
    the simulation.

Admission is ``always`` or ``prob`` (ProbCache-style coin flip per
insert attempt, again from a keyed stream).  Objects larger than the
whole capacity are never admitted.

Determinism contract: every draw is keyed off this cache's own seed and
its private event ordinals, and the per-FE request stream that feeds a
cache is shard-local under the FE-sharing partition — so sharded runs
replay identical cache state.  See docs/CACHING.md.
"""

from __future__ import annotations

import random
from typing import Dict, Optional

from repro.cache.spec import CacheSpec
from repro.obs import runtime as _obs
from repro.obs.metrics import SCOPE_SIM
from repro.sim.randomness import derive_seed


class _Entry:
    __slots__ = ("size_bytes", "value", "frequency", "sequence")

    def __init__(self, size_bytes: int, value, sequence: int):
        self.size_bytes = size_bytes
        self.value = value
        self.frequency = 1
        #: Insertion ordinal — FIFO age and the deterministic LFU
        #: tie-break.  Survives LRU reordering of the backing dict.
        self.sequence = sequence


class ContentCache:
    """One cache: a byte budget, an eviction policy, an admission rule.

    ``metric_prefix`` names the obs counters (``<prefix>hits`` etc.);
    counters are only exported for *finite* caches so the degenerate
    infinite default adds no sim-scope records to existing fingerprints.
    """

    def __init__(self, spec: CacheSpec, *, name: str = "cache",
                 seed: int = 0, metric_prefix: Optional[str] = None):
        self.spec = spec
        self.name = name
        self._seed = seed
        # Infinite caches stay silent in obs exports (fingerprint
        # compatibility); finite ones announce every hit/miss/eviction.
        self._metric_prefix = metric_prefix if spec.finite else None
        self._entries: Dict[str, _Entry] = {}
        self.used_bytes = 0
        self.hits = 0
        self.misses = 0
        self.insertions = 0
        self.evictions = 0
        self.rejections = 0
        self._insert_seq = 0
        self._evict_seq = 0
        self._admit_seq = 0

    # -- introspection -------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def hit_rate(self) -> Optional[float]:
        """Hit fraction over all lookups so far (None before any)."""
        total = self.lookups
        if total == 0:
            return None
        return self.hits / total

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "insertions": self.insertions,
            "evictions": self.evictions,
            "rejections": self.rejections,
            "used_bytes": self.used_bytes,
            "entries": len(self._entries),
        }

    # -- core operations -----------------------------------------------

    def lookup(self, key: str) -> bool:
        """Touch ``key``: True on hit (updates recency/frequency)."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            self._inc("misses")
            return False
        entry.frequency += 1
        if self.spec.policy == "lru":
            # Move to the tail so dict head stays the LRU victim.
            del self._entries[key]
            self._entries[key] = entry
        self.hits += 1
        self._inc("hits")
        return True

    def get(self, key: str):
        """``lookup`` that returns the stored value (None on miss)."""
        if not self.lookup(key):
            return None
        return self._entries[key].value

    def peek(self, key: str) -> bool:
        """Presence test without touching recency or counters."""
        return key in self._entries

    def size_of(self, key: str) -> int:
        """Stored byte size of a resident key (KeyError if absent)."""
        return self._entries[key].size_bytes

    def insert(self, key: str, size_bytes: int, value=None) -> bool:
        """Offer an object; returns True when it ends up resident.

        Re-offering a resident key refreshes its value/size in place
        (no admission draw, no insertion counted).  New keys pass the
        admission rule, then evict victims until the object fits;
        objects larger than the whole capacity are rejected outright.
        """
        entry = self._entries.get(key)
        if entry is not None:
            self.used_bytes += size_bytes - entry.size_bytes
            entry.size_bytes = size_bytes
            entry.value = value
            if self.spec.finite:
                self._evict_until(self.spec.capacity_bytes, protect=key)
            return True
        if not self._admit(key):
            self.rejections += 1
            self._inc("rejections")
            return False
        capacity = self.spec.capacity_bytes
        if capacity is not None:
            if size_bytes > capacity:
                self.rejections += 1
                self._inc("rejections")
                return False
            self._evict_until(capacity - size_bytes)
        self._insert_seq += 1
        self._entries[key] = _Entry(size_bytes, value, self._insert_seq)
        self.used_bytes += size_bytes
        self.insertions += 1
        self._inc("insertions")
        return True

    def clear(self) -> None:
        """Drop every entry (counters keep accumulating)."""
        self._entries.clear()
        self.used_bytes = 0

    def reset_stats(self) -> None:
        """Zero the counters (residency is untouched)."""
        self.hits = self.misses = 0
        self.insertions = self.evictions = self.rejections = 0

    # -- internals -----------------------------------------------------

    def _admit(self, key: str) -> bool:
        if self.spec.admission == "always":
            return True
        self._admit_seq += 1
        rng = random.Random(derive_seed(
            self._seed, "cache/%s/admit#%d" % (self.name, self._admit_seq)))
        return rng.random() < self.spec.admit_probability

    def _evict_until(self, budget: int,
                     protect: Optional[str] = None) -> None:
        while self.used_bytes > budget:
            victim = self._pick_victim(protect)
            if victim is None:
                return
            entry = self._entries.pop(victim)
            self.used_bytes -= entry.size_bytes
            self.evictions += 1
            self._inc("evictions")

    def _pick_victim(self, protect: Optional[str]) -> Optional[str]:
        candidates = [k for k in self._entries if k != protect]
        if not candidates:
            return None
        policy = self.spec.policy
        if policy == "lru":
            # Dict head == least recently used (hits re-append).
            return candidates[0]
        if policy == "fifo":
            return min(candidates,
                       key=lambda k: self._entries[k].sequence)
        if policy == "lfu":
            return min(candidates,
                       key=lambda k: (self._entries[k].frequency,
                                      self._entries[k].sequence))
        # "random": keyed stream — victim ordinal n is a pure function
        # of (seed, name, n), untangled from every other sim draw.
        self._evict_seq += 1
        rng = random.Random(derive_seed(
            self._seed, "cache/%s/evict#%d" % (self.name, self._evict_seq)))
        return candidates[rng.randrange(len(candidates))]

    def _inc(self, suffix: str) -> None:
        if self._metric_prefix is None or not _obs.enabled:
            return
        _obs.metrics.inc("%s%s" % (self._metric_prefix, suffix),
                         scope=SCOPE_SIM)
