"""FE → regional → origin lookup chain for static content.

:class:`CacheTier` composes the per-front-end static cache with an
optional regional middle tier.  A lookup walks the tiers in order and
reports where the object was found:

* level ``0`` — the FE's own cache (no extra delay),
* level ``1`` — the regional cache (costs ``regional_fetch_delay``),
* :data:`ORIGIN` (``-1``) — nowhere: the front-end must fetch the full
  page from the back-end, which rides the real packet-simulated path
  and therefore perturbs t3/t4/t5.

After a hit below the top, or an origin fetch, copies propagate per the
hierarchy's fill policy: ``lce`` (leave-copy-everywhere) fills every
tier above the hit, ``lcd`` (leave-copy-down) fills only the single
tier just above it — so an object must be requested repeatedly to climb
one tier per miss (Laoutaris et al.).

The degenerate hierarchy (infinite static cache) keeps the paper's
black-box behaviour: ``lookup`` always answers level 0, touches no
counters, and exports no metrics — existing figure outputs and
campaign fingerprints stay bit-identical.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.cache.policy import ContentCache
from repro.cache.spec import CacheHierarchySpec
from repro.obs import runtime as _obs
from repro.obs.metrics import SCOPE_SIM

#: ``lookup`` result when no tier holds the object.
ORIGIN = -1

#: Human-readable tier names, indexed by lookup level.
LEVEL_NAMES = ("fe", "regional")


class CacheTier:
    """One front-end's view of the static-content cache hierarchy.

    ``regional_cache`` lets the deployment inject a *shared* regional
    instance (``regional_scope="shared"``: one per backend site);
    otherwise each front-end gets a private regional cache.
    """

    ORIGIN = ORIGIN

    def __init__(self, spec: CacheHierarchySpec, *, name: str = "fe",
                 seed: int = 0,
                 regional_cache: Optional[ContentCache] = None):
        self.spec = spec
        self.name = name
        self.levels: List[ContentCache] = []
        self.origin_fetches = 0
        if spec.static.finite:
            self.levels.append(ContentCache(
                spec.static, name="%s/static" % name, seed=seed,
                metric_prefix="cache.fe."))
            if spec.regional is not None:
                if regional_cache is None:
                    regional_cache = ContentCache(
                        spec.regional, name="%s/regional" % name,
                        seed=seed, metric_prefix="cache.regional.")
                self.levels.append(regional_cache)

    @property
    def finite(self) -> bool:
        """True when lookups can actually miss (non-degenerate)."""
        return bool(self.levels)

    def lookup(self, key: str) -> int:
        """Walk the tiers; return the hit level or :data:`ORIGIN`.

        A hit below the top immediately propagates copies upward per
        the fill policy, so the caller only has to add the fetch delay.
        """
        if not self.levels:
            return 0  # pre-warmed black box: the paper's always-hit FE
        for level, cache in enumerate(self.levels):
            if cache.lookup(key):
                if level > 0:
                    self._fill_above(key, cache.size_of(key), level)
                return level
        self.origin_fetches += 1
        if _obs.enabled:
            _obs.metrics.inc("cache.origin.fetches", scope=SCOPE_SIM)
        return ORIGIN

    def fill_from_origin(self, key: str, size_bytes: int) -> None:
        """Install copies after the back-end supplied the object."""
        if not self.levels:
            return
        bottom = len(self.levels)  # origin sits just below the stack
        if self.spec.fill == "lcd":
            # Leave-copy-down: only the tier directly above the origin.
            self.levels[bottom - 1].insert(key, size_bytes)
        else:
            for cache in self.levels:
                cache.insert(key, size_bytes)

    def fetch_delay(self, level: int) -> float:
        """Extra response delay for a hit at ``level`` (seconds)."""
        if level <= 0:
            return 0.0
        return self.spec.regional_fetch_delay

    def clear(self) -> None:
        for cache in self.levels:
            cache.clear()

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Per-tier counter dump plus the origin-fetch total."""
        out = {LEVEL_NAMES[level]: cache.stats()
               for level, cache in enumerate(self.levels)}
        out["origin"] = {"fetches": self.origin_fetches}
        return out

    def _fill_above(self, key: str, size_bytes: int,
                    hit_level: int) -> None:
        if self.spec.fill == "lcd":
            self.levels[hit_level - 1].insert(key, size_bytes)
        else:
            for cache in self.levels[:hit_level]:
                cache.insert(key, size_bytes)


def aggregate_stats(tiers) -> Optional[Dict[str, int]]:
    """Sum finite-cache counters over many front-ends' tiers.

    Keys are ``<level>_<counter>`` (``fe_hits``, ``regional_evictions``,
    ...) plus ``origin_fetches``.  A shared regional cache referenced by
    several tiers is counted once (deduplicated by identity).  Returns
    None when every tier is the degenerate infinite hierarchy, so
    default campaigns report no cache section at all.
    """
    totals: Dict[str, int] = {}
    seen = set()
    any_finite = False
    for tier in tiers:
        if not tier.finite:
            continue
        any_finite = True
        totals["origin_fetches"] = (totals.get("origin_fetches", 0)
                                    + tier.origin_fetches)
        for level, cache in enumerate(tier.levels):
            if id(cache) in seen:
                continue
            seen.add(id(cache))
            prefix = LEVEL_NAMES[level]
            for key, value in cache.stats().items():
                name = "%s_%s" % (prefix, key)
                totals[name] = totals.get(name, 0) + value
    if not any_finite:
        return None
    return totals
