"""Unit tests for the finite content-cache subsystem (``repro.cache``).

Covers spec validation, each eviction policy's victim choice, the
determinism contract of the keyed draws, and the FE -> regional ->
origin tier walk with both fill policies.
"""

import pytest

from repro.cache import (
    CacheHierarchySpec,
    CacheSpec,
    CacheTier,
    ContentCache,
    ORIGIN,
    aggregate_stats,
)
from repro.cache.tier import REGIONAL_FETCH_DELAY


# ---------------------------------------------------------------------------
# CacheSpec / CacheHierarchySpec validation
# ---------------------------------------------------------------------------
def test_spec_defaults_are_infinite():
    spec = CacheSpec()
    assert spec.policy == "infinite"
    assert not spec.finite
    hierarchy = CacheHierarchySpec()
    assert not hierarchy.static.finite
    assert hierarchy.regional is None


def test_spec_rejects_inconsistent_capacity():
    with pytest.raises(ValueError):
        CacheSpec("infinite", capacity_bytes=100)
    with pytest.raises(ValueError):
        CacheSpec("lru")  # finite policy needs a capacity
    with pytest.raises(ValueError):
        CacheSpec("lru", capacity_bytes=0)
    with pytest.raises(ValueError):
        CacheSpec("clock", capacity_bytes=100)  # unknown policy


def test_hierarchy_regional_requires_finite_static():
    with pytest.raises(ValueError):
        CacheHierarchySpec(regional=CacheSpec("lru", capacity_bytes=10))
    spec = CacheHierarchySpec(
        static=CacheSpec("lru", capacity_bytes=10),
        regional=CacheSpec("lru", capacity_bytes=40))
    assert spec.static.finite and spec.regional is not None


# ---------------------------------------------------------------------------
# Eviction policies
# ---------------------------------------------------------------------------
def _cache(policy, capacity, **kwargs):
    return ContentCache(CacheSpec(policy, capacity_bytes=capacity,
                                  **kwargs), name="t", seed=7)


def test_lru_evicts_least_recently_used():
    cache = _cache("lru", 3)
    for key in "abc":
        cache.insert(key, 1)
    assert cache.lookup("a")  # refresh a's recency; b is now LRU
    cache.insert("d", 1)
    assert "b" not in cache
    assert "a" in cache and "c" in cache and "d" in cache
    assert cache.evictions == 1


def test_fifo_evicts_oldest_insertion_despite_hits():
    cache = _cache("fifo", 3)
    for key in "abc":
        cache.insert(key, 1)
    cache.lookup("a")  # FIFO ignores recency
    cache.insert("d", 1)
    assert "a" not in cache
    assert "b" in cache


def test_lfu_evicts_least_frequent_with_insertion_tiebreak():
    cache = _cache("lfu", 3)
    for key in "abc":
        cache.insert(key, 1)
    cache.lookup("a")
    cache.lookup("a")
    cache.lookup("c")
    # frequencies: a=3, b=1, c=2 -> victim b
    cache.insert("d", 1)
    assert "b" not in cache
    # now a=3, c=2, d=1... and on a tie the older insertion loses
    cache.insert("e", 1)
    assert "d" not in cache


def test_random_eviction_is_deterministic_per_seed():
    def victims(seed):
        cache = ContentCache(CacheSpec("random", capacity_bytes=4),
                             name="t", seed=seed)
        out = []
        for index in range(12):
            before = set(cache._entries)
            cache.insert("k%d" % index, 1)
            out.append(tuple(sorted(before - set(cache._entries))))
        return out

    assert victims(3) == victims(3)  # pure function of (seed, name, n)


def test_oversize_object_rejected():
    cache = _cache("lru", 10)
    assert not cache.insert("big", 11)
    assert cache.rejections == 1
    assert len(cache) == 0


def test_resident_reinsert_refreshes_in_place():
    cache = _cache("lru", 10)
    cache.insert("a", 4, value="v1")
    assert cache.insert("a", 6, value="v2")
    assert cache.insertions == 1  # refresh, not a new insertion
    assert cache.used_bytes == 6
    cache.lookup("a")
    assert cache.get("a") == "v2"


def test_eviction_frees_enough_bytes_for_large_objects():
    cache = _cache("lru", 10)
    for key in "abcde":
        cache.insert(key, 2)
    cache.insert("f", 6)  # must displace three 2-byte entries
    assert cache.used_bytes <= 10
    assert "f" in cache
    assert cache.evictions == 3


def test_counters_and_stats():
    cache = _cache("lru", 4)
    cache.insert("a", 1)
    assert cache.lookup("a")
    assert not cache.lookup("b")
    stats = cache.stats()
    assert stats["hits"] == 1 and stats["misses"] == 1
    assert stats["entries"] == 1 and stats["used_bytes"] == 1


def test_infinite_cache_never_evicts():
    cache = ContentCache(CacheSpec(), name="t")
    for index in range(500):
        cache.insert("k%d" % index, 1000)
    assert len(cache) == 500
    assert cache.evictions == 0


# ---------------------------------------------------------------------------
# CacheTier
# ---------------------------------------------------------------------------
def test_degenerate_tier_always_hits_silently():
    tier = CacheTier(CacheHierarchySpec())
    assert not tier.finite
    assert tier.lookup("anything") == 0
    assert tier.origin_fetches == 0
    assert tier.fetch_delay(0) == 0.0


def test_single_tier_miss_fill_hit_cycle():
    spec = CacheHierarchySpec(static=CacheSpec("lru", capacity_bytes=10))
    tier = CacheTier(spec, name="fe0", seed=3)
    assert tier.lookup("page") == ORIGIN
    assert tier.origin_fetches == 1
    tier.fill_from_origin("page", 4)
    assert tier.lookup("page") == 0
    assert tier.levels[0].stats()["hits"] == 1


def test_two_tier_lce_fills_everywhere_and_promotes():
    spec = CacheHierarchySpec(
        static=CacheSpec("lru", capacity_bytes=4),
        regional=CacheSpec("lru", capacity_bytes=16))
    tier = CacheTier(spec, name="fe0", seed=3)
    tier.fill_from_origin("page", 4)  # lce: both tiers get a copy
    assert "page" in tier.levels[0] and "page" in tier.levels[1]
    # Push the copy out of the tiny FE tier, keep the regional one.
    tier.fill_from_origin("other", 4)
    assert "page" not in tier.levels[0]
    assert "page" in tier.levels[1]
    # A regional hit costs the regional delay and re-promotes to FE.
    assert tier.lookup("page") == 1
    assert tier.fetch_delay(1) == REGIONAL_FETCH_DELAY
    assert "page" in tier.levels[0]


def test_two_tier_lcd_climbs_one_tier_per_request():
    spec = CacheHierarchySpec(
        static=CacheSpec("lru", capacity_bytes=16),
        regional=CacheSpec("lru", capacity_bytes=16),
        fill="lcd")
    tier = CacheTier(spec, name="fe0", seed=3)
    tier.fill_from_origin("page", 4)  # lcd: regional only
    assert "page" not in tier.levels[0]
    assert "page" in tier.levels[1]
    assert tier.lookup("page") == 1  # regional hit promotes to FE
    assert "page" in tier.levels[0]
    assert tier.lookup("page") == 0


def test_aggregate_stats_sums_every_tier():
    spec = CacheHierarchySpec(
        static=CacheSpec("lru", capacity_bytes=10),
        regional=CacheSpec("lru", capacity_bytes=100))
    tiers = [CacheTier(spec, name="fe%d" % i, seed=1) for i in range(3)]
    for index, tier in enumerate(tiers):
        key = "page-%d" % index
        assert tier.lookup(key) == ORIGIN
        tier.fill_from_origin(key, 4)
    # Each front-end owns its regional tier: another FE's fill misses.
    assert tiers[1].lookup("page-0") == ORIGIN
    totals = aggregate_stats(tiers)
    assert totals["origin_fetches"] == 4
    assert totals["fe_misses"] == 4
    assert totals["regional_misses"] == 4
    assert totals["regional_hits"] == 0
    assert totals["regional_used_bytes"] == 12


def test_aggregate_stats_none_for_all_infinite():
    tiers = [CacheTier(CacheHierarchySpec()) for _ in range(3)]
    assert aggregate_stats(tiers) is None
