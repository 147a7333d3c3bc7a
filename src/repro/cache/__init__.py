"""Finite content caches and tier composition for front-end servers.

The cache-policy laboratory: byte-capacity :class:`ContentCache` with
pluggable eviction (LRU/LFU/FIFO/random), and :class:`CacheTier`
chaining FE → regional → back-end lookups.  The degenerate
:class:`CacheSpec` default ("infinite") reproduces the paper's
always-hit black-box FE cache and keeps default runs bit-identical.
See docs/CACHING.md.
"""

from repro.cache.policy import ContentCache
from repro.cache.spec import POLICIES, CacheHierarchySpec, CacheSpec
from repro.cache.tier import ORIGIN, CacheTier, aggregate_stats

__all__ = [
    "POLICIES",
    "CacheHierarchySpec",
    "CacheSpec",
    "CacheTier",
    "ContentCache",
    "ORIGIN",
    "aggregate_stats",
]
