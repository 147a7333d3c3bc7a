"""Keyword-effect study (reviewer #2's request).

The summary review asks the authors to "evaluate if there is a
correlation between the fetching time and the number of words used in
the query" and to contrast popular (likely back-end-cached) queries with
complex ones.  This experiment quantifies both against a fixed front
end:

* Spearman correlation between per-keyword median Tdynamic and the
  keyword's word count / complexity (expected positive);
* Spearman correlation with popularity (expected negative — hot
  back-end caches);
* the popular-vs-complex extremes the reviewers asked to see.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.stats import median
from repro.content.keywords import Keyword, KeywordCatalog
from repro.core.metrics import extract_all_calibrated
from repro.experiments.common import (
    ExperimentScale,
    build_scenario,
    calibrate_service,
)
from repro.measure.driver import run_queries
from repro.testbed.scenario import Scenario


@dataclass(frozen=True)
class KeywordEffect:
    """One keyword's aggregated fetch-time proxy."""

    keyword: Keyword
    tdynamic_median: float
    samples: int


@dataclass
class KeywordEffectsResult:
    """Correlations between keyword attributes and fetch time."""

    service: str
    effects: List[KeywordEffect] = field(default_factory=list)
    word_count_rho: float = 0.0
    word_count_p: float = 1.0
    complexity_rho: float = 0.0
    complexity_p: float = 1.0
    popularity_rho: float = 0.0
    popularity_p: float = 1.0

    def extremes(self) -> Tuple[KeywordEffect, KeywordEffect]:
        """(cheapest, costliest) keywords by median Tdynamic."""
        ordered = sorted(self.effects, key=lambda e: e.tdynamic_median)
        return ordered[0], ordered[-1]


def run_keyword_effects(scale: Optional[ExperimentScale] = None, *,
                        service_name: str = Scenario.BING,
                        keywords_per_class: int = 6,
                        repeats: int = 8) -> KeywordEffectsResult:
    """Query a spread of keywords and correlate attributes vs Tdynamic."""
    scale = scale or ExperimentScale.small()
    scenario = build_scenario(scale)
    service = scenario.service(service_name)

    catalog = KeywordCatalog(seed=scale.seed)
    keywords: List[Keyword] = []
    keywords += catalog.popular(keywords_per_class)
    keywords += catalog.mixed(keywords_per_class)
    keywords += catalog.refined(keywords_per_class)
    keywords += catalog.complex(keywords_per_class)
    # De-duplicate by text (catalog classes can collide at small sizes).
    unique: Dict[str, Keyword] = {}
    for keyword in keywords:
        unique.setdefault(keyword.text, keyword)
    keywords = list(unique.values())

    # A low-RTT probe client so Tdynamic ~ Tfetch.
    vp = min(scenario.vantage_points,
             key=lambda candidate: scenario.client_fe_rtt(
                 candidate, scenario.default_frontend(service_name,
                                                      candidate),
                 service))
    frontend = scenario.default_frontend(service_name, vp)
    calibration = calibrate_service(scenario, service_name, [frontend],
                                    vp)

    # Every keyword once per repeat, one query every ``interval / 2``.
    plan = []
    time = scenario.sim.now
    for _ in range(repeats):
        for keyword in keywords:
            plan.append((time, vp, service_name, frontend, keyword))
            time = time + scale.interval / 2
    sessions_by_keyword: Dict[str, list] = {k.text: [] for k in keywords}
    for session in run_queries(scenario, plan)[vp.name]:
        sessions_by_keyword[session.keyword.text].append(session)

    result = KeywordEffectsResult(service=service_name)
    for keyword in keywords:
        metrics = extract_all_calibrated(
            sessions_by_keyword[keyword.text], calibration)
        if not metrics:
            continue
        result.effects.append(KeywordEffect(
            keyword=keyword,
            tdynamic_median=median([m.tdynamic for m in metrics]),
            samples=len(metrics)))

    # scipy takes over a second to import; keep it off every path that
    # does not correlate.
    from scipy import stats as scipy_stats

    tdyn = [e.tdynamic_median for e in result.effects]
    for attribute, rho_field, p_field in (
            ("word_count", "word_count_rho", "word_count_p"),
            ("complexity", "complexity_rho", "complexity_p"),
            ("popularity", "popularity_rho", "popularity_p")):
        values = [getattr(e.keyword, attribute) for e in result.effects]
        rho, p = scipy_stats.spearmanr(values, tdyn)
        setattr(result, rho_field, float(rho))
        setattr(result, p_field, float(p))
    return result


def render_keyword_effects(result: KeywordEffectsResult) -> str:
    """Text report for the keyword-effect study."""
    from repro.sim import units

    lines = ["Keyword-effect study (%s) — reviewer #2's correlation"
             % result.service]
    lines.append("  %d keywords, per-keyword median Tdynamic:"
                 % len(result.effects))
    cheapest, costliest = result.extremes()
    lines.append("    cheapest:  %-38r %7.1f ms"
                 % (cheapest.keyword.text,
                    units.seconds_to_ms(cheapest.tdynamic_median)))
    lines.append("    costliest: %-38r %7.1f ms"
                 % (costliest.keyword.text,
                    units.seconds_to_ms(costliest.tdynamic_median)))
    lines.append("  Spearman rho vs Tdynamic:")
    lines.append("    word count:  %+.2f (p=%.3g)"
                 % (result.word_count_rho, result.word_count_p))
    lines.append("    complexity:  %+.2f (p=%.3g)"
                 % (result.complexity_rho, result.complexity_p))
    lines.append("    popularity:  %+.2f (p=%.3g)"
                 % (result.popularity_rho, result.popularity_p))
    return "\n".join(lines)
