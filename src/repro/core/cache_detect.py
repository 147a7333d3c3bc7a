"""Do front-end servers cache search results?  (Section 3.)

The paper's experiment: against a fixed FE, (a) all nodes submit the
*same* query repeatedly, (b) each node submits a *different* query.  If
the FE cached dynamically generated results, repeated queries would skip
the back-end fetch and their ``Tdynamic`` distribution would collapse
toward ``Tstatic``; distinct queries would not.  Comparing the two
distributions answers the question — the paper concludes FE servers do
**not** cache search results.

This module implements that comparison with a two-sample
Kolmogorov-Smirnov test plus a median-ratio effect-size check (a
significant KS alone can reflect tiny differences at large n).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.analysis.stats import median


@dataclass(frozen=True)
class CacheDetectionResult:
    """Outcome of the same-query vs distinct-query comparison.

    ``caching_detected`` is True when repeated queries are both
    statistically distinguishable (KS p below ``alpha``) *and*
    substantially faster (median ratio below ``ratio_threshold``).
    """

    median_same: float
    median_distinct: float
    ks_statistic: float
    p_value: float
    caching_detected: bool

    @property
    def median_ratio(self) -> float:
        if self.median_distinct == 0:
            return float("inf")
        return self.median_same / self.median_distinct

    def verdict(self) -> str:
        if self.caching_detected:
            return ("FE servers appear to CACHE search results: repeated "
                    "queries are %.0f%% faster (p=%.2g)"
                    % ((1 - self.median_ratio) * 100, self.p_value))
        return ("FE servers do NOT appear to cache search results "
                "(median ratio %.2f, p=%.2g)"
                % (self.median_ratio, self.p_value))


def detect_result_caching(same_query_tdynamic: Sequence[float],
                          distinct_query_tdynamic: Sequence[float], *,
                          alpha: float = 0.01,
                          ratio_threshold: float = 0.6
                          ) -> CacheDetectionResult:
    """Compare Tdynamic distributions of repeated vs distinct queries.

    Parameters
    ----------
    same_query_tdynamic:
        Tdynamic samples when every node issued the same keyword.
    distinct_query_tdynamic:
        Tdynamic samples when every node issued a different keyword.
    alpha:
        KS significance level.
    ratio_threshold:
        Maximum median(same)/median(distinct) ratio compatible with
        caching (a cached response skips the whole FE-BE fetch, so the
        drop is large when caching exists).
    """
    # Imported here, not at module level: scipy takes over a second to
    # import, and no campaign path calls this function.
    from scipy import stats as scipy_stats

    if len(same_query_tdynamic) < 3 or len(distinct_query_tdynamic) < 3:
        raise ValueError("need at least 3 samples per condition")
    ks = scipy_stats.ks_2samp(same_query_tdynamic,
                              distinct_query_tdynamic)
    median_same = median(same_query_tdynamic)
    median_distinct = median(distinct_query_tdynamic)
    ratio = (median_same / median_distinct
             if median_distinct > 0 else float("inf"))
    detected = bool(ks.pvalue < alpha and ratio < ratio_threshold)
    return CacheDetectionResult(
        median_same=median_same,
        median_distinct=median_distinct,
        ks_statistic=float(ks.statistic),
        p_value=float(ks.pvalue),
        caching_detected=detected)
