"""Declarative cache configuration (picklable, hashable, frozen).

A :class:`CacheSpec` describes one content cache: its eviction policy
and byte capacity.  A :class:`CacheHierarchySpec`
composes the front-end's caches — the per-keyword static-content cache,
an optional regional middle tier, and the (counterfactual) result cache
— plus the fill policy that decides which tiers keep a copy after a
miss is repaired.

Specs live on :class:`~repro.testbed.scenario.ScenarioConfig` so that
shard workers can rebuild byte-identical cache state from the config
alone; everything here must therefore stay a plain frozen dataclass.

The degenerate default — ``CacheSpec(policy="infinite")`` — reproduces
the paper's black-box assumption: the FE cache always hits for static
content.  Every other policy starts cold and actually misses, which is
what makes the static/dynamic boundary a real caching experiment (see
``docs/CACHING.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

#: Eviction policies understood by :class:`repro.cache.ContentCache`.
POLICIES: Tuple[str, ...] = ("infinite", "lru", "lfu", "fifo", "random")

#: Fill policies for multi-tier hierarchies: leave-copy-everywhere
#: (every tier above the hit keeps a copy) or leave-copy-down (only the
#: tier immediately above the hit does — Laoutaris et al.'s LCD).
FILLS: Tuple[str, ...] = ("lce", "lcd")

@dataclass(frozen=True)
class CacheSpec:
    """Policy and capacity of one content cache."""

    policy: str = "infinite"
    #: Byte capacity; must be None for "infinite" and set otherwise.
    capacity_bytes: Optional[int] = None

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise ValueError("unknown cache policy %r (have %s)"
                             % (self.policy, "/".join(POLICIES)))
        if self.policy == "infinite":
            if self.capacity_bytes is not None:
                raise ValueError("infinite caches take no capacity; use "
                                 "a finite policy (lru/lfu/fifo/random)")
        else:
            if self.capacity_bytes is None or self.capacity_bytes <= 0:
                raise ValueError("finite policy %r needs a positive "
                                 "capacity_bytes" % self.policy)

    @property
    def finite(self) -> bool:
        """True when this cache can evict (and therefore miss)."""
        return self.policy != "infinite"


@dataclass(frozen=True)
class CacheHierarchySpec:
    """The front-end's cache complement and its tier composition.

    ``static`` is the per-keyword static-content cache the paper treats
    as a black box; ``regional`` (optional) is a middle tier consulted
    on FE misses before the back-end origin; ``result`` bounds the
    counterfactual dynamic-result cache (``FrontEndServer.cache_results``).
    """

    static: CacheSpec = field(default_factory=CacheSpec)
    regional: Optional[CacheSpec] = None
    fill: str = "lce"
    result: CacheSpec = field(default_factory=CacheSpec)

    def __post_init__(self):
        if self.fill not in FILLS:
            raise ValueError("unknown fill policy %r (have %s)"
                             % (self.fill, "/".join(FILLS)))
        if self.regional is not None and not self.static.finite:
            raise ValueError("a regional tier is unreachable behind the "
                             "infinite (always-hit) static cache; give "
                             "the static cache a finite policy first")
