"""Zipf keyword popularity over the content keyword universe.

Garetto et al. (PAPERS.md) motivate Zipf-skewed request streams as the
interesting regime for caches of dynamic content: a small head of hot
keys absorbs most requests.  :class:`ZipfPopularity` ranks a keyword
universe and samples rank ``r`` with probability proportional to
``1 / r**alpha``; higher ``alpha`` concentrates the stream onto the
head, which is exactly where the session-replay cache
(:mod:`repro.sim.replay`) earns hits — a repeated (VP, FE, keyword)
submission shares one recorded timeline.

Sampling is inverse-CDF over a precomputed cumulative table, one
``rng.random()`` draw per sample, so a per-session keyed RNG makes the
draw order-independent across shards (see :mod:`repro.workload.generator`).
"""

from __future__ import annotations

import random
from bisect import bisect_right
from typing import List, Sequence

from repro.content.keywords import Keyword, KeywordCatalog

__all__ = ["ZipfPopularity", "zipf_universe"]


def zipf_universe(seed: int, count: int) -> List[Keyword]:
    """The deterministic keyword universe a workload ranks.

    Drawn from the catalog's bulk pool and ordered by descending
    intrinsic popularity (ties broken by text), so Zipf rank 1 is the
    genuinely hottest keyword — hot keywords also get the back-end
    popularity discount, like real trending queries.
    """
    if count < 1:
        raise ValueError("keyword universe needs count >= 1, got %r"
                         % (count,))
    pool = KeywordCatalog(seed).bulk_pool(count)
    return sorted(pool, key=lambda kw: (-kw.popularity, kw.text))


class ZipfPopularity:
    """Rank-``alpha`` Zipf sampler over a fixed keyword sequence."""

    def __init__(self, keywords: Sequence[Keyword], alpha: float):
        if not keywords:
            raise ValueError("need at least one keyword")
        if alpha < 0.0:
            raise ValueError("alpha must be >= 0, got %r" % (alpha,))
        self.keywords: List[Keyword] = list(keywords)
        self.alpha = alpha
        self._cumulative: List[float] = []
        running = 0.0
        for rank in range(1, len(self.keywords) + 1):
            running += rank ** -alpha
            self._cumulative.append(running)
        self._total = running

    def sample(self, rng: random.Random) -> Keyword:
        """Draw one keyword; consumes exactly one ``rng.random()``."""
        point = rng.random() * self._total
        index = bisect_right(self._cumulative, point)
        if index >= len(self.keywords):  # point == total edge case
            index = len(self.keywords) - 1
        return self.keywords[index]

    def __len__(self) -> int:
        return len(self.keywords)
