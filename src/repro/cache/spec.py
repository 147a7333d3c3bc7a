"""Declarative cache configuration (picklable, hashable, frozen).

A :class:`CacheSpec` describes one content cache: its eviction policy,
byte capacity, and admission rule.  A :class:`CacheHierarchySpec`
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

#: Admission rules: admit every insert, or admit probabilistically
#: (ProbCache-style; see Saino et al.'s icarus policy zoo).
ADMISSIONS: Tuple[str, ...] = ("always", "prob")

#: Fill policies for multi-tier hierarchies: leave-copy-everywhere
#: (every tier above the hit keeps a copy) or leave-copy-down (only the
#: tier immediately above the hit does — Laoutaris et al.'s LCD).
FILLS: Tuple[str, ...] = ("lce", "lcd")

#: Regional-tier sharing scope: one regional cache per front-end
#: (shard-safe) or one shared per backend site (serial only).
REGIONAL_SCOPES: Tuple[str, ...] = ("per-fe", "shared")


@dataclass(frozen=True)
class CacheSpec:
    """Policy, capacity, and admission rule of one content cache."""

    policy: str = "infinite"
    #: Byte capacity; must be None for "infinite" and set otherwise.
    capacity_bytes: Optional[int] = None
    admission: str = "always"
    #: Admission probability for ``admission="prob"``.
    admit_probability: float = 1.0

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise ValueError("unknown cache policy %r (have %s)"
                             % (self.policy, "/".join(POLICIES)))
        if self.admission not in ADMISSIONS:
            raise ValueError("unknown admission rule %r (have %s)"
                             % (self.admission, "/".join(ADMISSIONS)))
        if self.policy == "infinite":
            if self.capacity_bytes is not None:
                raise ValueError("infinite caches take no capacity; use "
                                 "a finite policy (lru/lfu/fifo/random)")
        else:
            if self.capacity_bytes is None or self.capacity_bytes <= 0:
                raise ValueError("finite policy %r needs a positive "
                                 "capacity_bytes" % self.policy)
        if not 0.0 <= self.admit_probability <= 1.0:
            raise ValueError("admit_probability must be in [0, 1]")

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
    counterfactual dynamic-result cache (``cache_results=True``).
    """

    static: CacheSpec = field(default_factory=CacheSpec)
    regional: Optional[CacheSpec] = None
    #: Extra delay to pull a static object out of the regional tier
    #: into the response (the regional round trip the packet simulator
    #: does not model; the origin path IS packet-simulated).
    regional_fetch_delay: float = 0.030
    fill: str = "lce"
    regional_scope: str = "per-fe"
    result: CacheSpec = field(default_factory=CacheSpec)

    def __post_init__(self):
        if self.fill not in FILLS:
            raise ValueError("unknown fill policy %r (have %s)"
                             % (self.fill, "/".join(FILLS)))
        if self.regional_scope not in REGIONAL_SCOPES:
            raise ValueError("unknown regional scope %r (have %s)"
                             % (self.regional_scope,
                                "/".join(REGIONAL_SCOPES)))
        if self.regional is not None and not self.static.finite:
            raise ValueError("a regional tier is unreachable behind the "
                             "infinite (always-hit) static cache; give "
                             "the static cache a finite policy first")
        if self.regional_fetch_delay < 0.0:
            raise ValueError("regional_fetch_delay must be >= 0")

    @property
    def shared_regional(self) -> bool:
        """True when the regional tier is shared across front-ends."""
        return self.regional is not None \
            and self.regional_scope == "shared"
