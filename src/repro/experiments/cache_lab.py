"""The cache-policy laboratory: finite FE caches under the microscope.

The paper treats the front-end cache as a black box that always hits
for static content, so the repo's static/dynamic inference had never
met a cache that can actually *miss*.  This experiment makes the FE
cache a laboratory instrument:

* **Sweep** — (policy, capacity, Zipf alpha, tier depth) cells, each
  replaying a skewed keyword stream against one front-end with a finite
  :class:`~repro.cache.CacheTier`, reporting the ground-truth hit rate
  (from the per-tier hit/miss log), the hit rate *inferred from the
  landmark timeline alone*, and the landmark impact (Tstatic/Tdynamic
  medians split by ground-truth hit vs miss).

* **Validation** — ``core.cache_detect`` run against deployments whose
  result-caching behaviour is known from server-side logs: no caching,
  an unbounded result cache, and a result cache too small to admit a
  single response.  The detector's verdict must match the log-derived
  ground truth in every case.

The outside-view hit classifier uses the paper's own Tdelta logic: on
a static-cache hit the static prefix arrives a back-end fetch *before*
the dynamic part (Tdelta large), while on a miss both ride one
full-page response (Tdelta collapses to the dynamic transfer time).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.analysis.stats import median
from repro.cache import (
    CacheHierarchySpec,
    CacheSpec,
    CacheTier,
    ContentCache,
)
from repro.content.keywords import Keyword
from repro.core.cache_detect import (
    CacheDetectionResult,
    detect_result_caching,
)
from repro.core.metrics import extract_all_calibrated
from repro.experiments.common import (
    ExperimentScale,
    calibrate_service,
)
from repro.measure.driver import run_single_queries
from repro.sim.randomness import derive_seed
from repro.testbed.scenario import Scenario, ScenarioConfig
from repro.workload.popularity import ZipfPopularity, zipf_universe

#: Outside-view hit classifier: a session whose Tdelta exceeds this is
#: inferred to have had its static prefix served from FE cache (on a
#: miss, static and dynamic share one response and Tdelta collapses to
#: the dynamic-part transfer time, well under this).  Half the
#: google-like back-end's base processing time.
TDELTA_HIT_THRESHOLD = 0.015

#: Keyword universe size for the sweep streams.
UNIVERSE_SIZE = 24


@dataclass
class CacheLabPoint:
    """One sweep cell: a (policy, capacity, alpha, depth) campaign."""

    policy: str
    capacity_objects: int
    capacity_bytes: int
    alpha: float
    tier_depth: int
    fill: str
    queries: int
    #: Ground truth from the per-tier hit/miss log.
    fe_hits: int
    regional_hits: int
    origin_fetches: int
    evictions: int
    #: Hit rate inferred from landmark timelines alone (Tdelta test).
    measured_hit_rate: float
    #: Landmark medians split by ground-truth FE verdict (seconds;
    #: None when a side has no samples).
    hit_tstatic: Optional[float]
    miss_tstatic: Optional[float]
    hit_tdynamic: Optional[float]
    miss_tdynamic: Optional[float]

    @property
    def ground_truth_hit_rate(self) -> float:
        """FE-level hit fraction from the server-side log."""
        if self.queries == 0:
            return 0.0
        return self.fe_hits / self.queries

    @property
    def classifier_agrees(self) -> bool:
        """Does the outside-view hit rate track the ground truth
        within 10 points?"""
        return abs(self.measured_hit_rate
                   - self.ground_truth_hit_rate) <= 0.10


@dataclass
class CacheValidationCase:
    """One ``cache_detect`` validation: detector vs server-side logs."""

    name: str
    #: Did the FE actually serve dynamic results from cache?  Derived
    #: from ``result_cache_hits`` in the server log, not from config.
    ground_truth_caching: bool
    result_cache_hits: int
    detection: CacheDetectionResult

    @property
    def detector_correct(self) -> bool:
        return self.detection.caching_detected == self.ground_truth_caching


@dataclass
class CacheLabResult:
    """Everything the cache laboratory measured."""

    service: str
    static_object_bytes: int
    points: List[CacheLabPoint] = field(default_factory=list)
    validations: List[CacheValidationCase] = field(default_factory=list)

    def points_by(self, **attrs) -> List[CacheLabPoint]:
        """Sweep cells matching all given attribute values."""
        out = []
        for point in self.points:
            if all(getattr(point, key) == value
                   for key, value in attrs.items()):
                out.append(point)
        return out

    @property
    def hit_rate_monotone_in_alpha(self) -> bool:
        """Does the measured LRU hit rate rise with Zipf skew?"""
        cells = sorted(self.points_by(policy="lru", tier_depth=1,
                                      capacity_objects=8),
                       key=lambda p: p.alpha)
        rates = [p.ground_truth_hit_rate for p in cells]
        return len(rates) >= 2 and all(a <= b for a, b in
                                       zip(rates, rates[1:]))

    @property
    def all_validations_correct(self) -> bool:
        return all(case.detector_correct for case in self.validations)


def _zipf_stream(universe: Sequence[Keyword], alpha: float, count: int,
                 seed: int, label: str) -> List[Keyword]:
    """A deterministic Zipf-distributed keyword stream."""
    popularity = ZipfPopularity(universe, alpha)
    rng = random.Random(derive_seed(seed, "cache-lab/stream/%s" % label))
    return [popularity.sample(rng) for _ in range(count)]


def _install_tier(frontend, spec: CacheHierarchySpec,
                  seed: int, label: str) -> CacheTier:
    """Swap a fresh cache hierarchy into a front-end between cells.

    The experiment reuses one scenario (deployments are the expensive
    part) and re-equips the probed FE per sweep cell; the hit/miss log
    is cleared with it so each cell's ground truth starts empty.
    """
    # "cache-lab/tier/" keeps this namespace disjoint from the
    # keyword-stream seeds ("cache-lab/stream/"): RNG002 flags the
    # previous "cache-lab/%s" form, which could collide with any
    # label of the shape "stream/<x>".
    tier = CacheTier(spec, name="%s/%s" % (frontend.node.name, label),
                     seed=derive_seed(seed, "cache-lab/tier/%s" % label))
    frontend.cache_spec = spec
    frontend.static_cache = tier
    frontend.static_hit_log.clear()
    return tier


def run_cache_lab(scale: Optional[ExperimentScale] = None, *,
                  service_name: str = Scenario.GOOGLE) -> CacheLabResult:
    """Run the sweep and the detector-validation cases."""
    scale = scale or ExperimentScale.small()
    scenario = Scenario(ScenarioConfig(
        seed=scale.seed, vantage_count=scale.vantage_count))
    service = scenario.service(service_name)
    frontend = service.frontends[0]
    # Calibrate with the degenerate infinite cache installed: the
    # static/dynamic boundary is a property of the page content, not of
    # the cache, and calibration queries must not pollute cell state.
    calibration = calibrate_service(scenario, service_name, [frontend])
    size = len(service.pages.static_content())
    result = CacheLabResult(service=service_name,
                            static_object_bytes=size)

    vp = min(scenario.vantage_points,
             key=lambda v: scenario.client_fe_rtt(v, frontend, service))
    universe = zipf_universe(scale.seed + 13, UNIVERSE_SIZE)
    # Long enough that the steady-state hit rate dominates the cold
    # start (universe 24, capacities 4-16 objects).
    queries = max(80, scale.fig3_samples)

    cells: List[Dict] = []
    for policy in ("lru", "lfu", "fifo", "random"):
        cells.append(dict(policy=policy, objects=8, alpha=0.9, depth=1))
    for objects in (4, 16):
        cells.append(dict(policy="lru", objects=objects, alpha=0.9,
                          depth=1))
    for alpha in (0.6, 1.0, 1.4):
        cells.append(dict(policy="lru", objects=8, alpha=alpha, depth=1))
    for fill in ("lce", "lcd"):
        cells.append(dict(policy="lru", objects=4, alpha=0.9, depth=2,
                          fill=fill))

    for cell in cells:
        result.points.append(_run_cell(
            scenario, service_name, frontend, vp, calibration, universe,
            queries, size, scale.seed, **cell))

    # The detector validations run on the bing-like service: its large
    # back-end processing share gives the clearest same/distinct
    # separation, matching the section-3 caching experiment.
    validation_service = Scenario.BING
    v_frontend = scenario.service(validation_service).frontends[0]
    v_calibration = calibrate_service(scenario, validation_service,
                                      [v_frontend])
    result.validations.extend(_run_validations(
        scenario, validation_service, v_frontend, v_calibration, scale))

    # Leave the scenario the way we found it.
    _install_tier(frontend, CacheHierarchySpec(), scale.seed, "restore")
    _install_tier(v_frontend, CacheHierarchySpec(), scale.seed,
                  "restore-validation")
    return result


def _run_cell(scenario, service_name, frontend, vp, calibration,
              universe, queries, size, seed, *, policy, objects, alpha,
              depth, fill="lce") -> CacheLabPoint:
    label = "%s-c%d-a%.1f-d%d-%s" % (policy, objects, alpha, depth, fill)
    static = CacheSpec(policy, capacity_bytes=objects * size)
    regional = None
    if depth >= 2:
        # The regional tier holds 4x the FE working set.
        regional = CacheSpec(policy, capacity_bytes=4 * objects * size)
    spec = CacheHierarchySpec(static=static, regional=regional,
                              fill=fill)
    tier = _install_tier(frontend, spec, seed, label)

    stream = _zipf_stream(universe, alpha, queries, seed, label)
    sessions = run_single_queries(
        scenario, service_name, frontend,
        [(vp, keyword) for keyword in stream], spacing=0.5)
    metrics = extract_all_calibrated(sessions, calibration)

    hit_levels = [frontend.static_hit_log[s.query_id] for s in sessions]
    fe_hits = sum(1 for level in hit_levels if level == 0)
    regional_hits = sum(1 for level in hit_levels if level == 1)
    inferred_hits = sum(1 for m in metrics
                        if m.tdelta > TDELTA_HIT_THRESHOLD)

    split: Dict[bool, List] = {True: [], False: []}
    for level, metric in zip(hit_levels, metrics):
        split[level >= 0].append(metric)

    def med(samples, attr):
        if not samples:
            return None
        return median([getattr(m, attr) for m in samples])

    return CacheLabPoint(
        policy=policy, capacity_objects=objects,
        capacity_bytes=objects * size, alpha=alpha, tier_depth=depth,
        fill=fill, queries=len(sessions),
        fe_hits=fe_hits, regional_hits=regional_hits,
        origin_fetches=tier.origin_fetches,
        evictions=sum(c.evictions for c in tier.levels),
        measured_hit_rate=(inferred_hits / len(metrics)
                           if metrics else 0.0),
        hit_tstatic=med(split[True], "tstatic"),
        miss_tstatic=med(split[False], "tstatic"),
        hit_tdynamic=med(split[True], "tdynamic"),
        miss_tdynamic=med(split[False], "tdynamic"))


def _run_validations(scenario, service_name, frontend, calibration,
                     scale) -> List[CacheValidationCase]:
    """``cache_detect`` against log-derived ground truth.

    Three deployments: no result caching, an unbounded result cache,
    and a result cache whose capacity cannot admit a single response.
    Ground truth is whether ``result_cache_hits`` moved — what the FE
    *did*, not what it was configured to attempt.
    """
    service = scenario.service(service_name)
    vps = sorted(scenario.vantage_points,
                 key=lambda v: scenario.client_fe_rtt(v, frontend,
                                                      service))
    vps = vps[:max(8, scale.vantage_count // 3)]
    shared = Keyword(text="cache lab shared probe", popularity=0.8,
                     complexity=0.4)
    distinct = zipf_universe(scale.seed + 29, len(vps))

    cases = []
    setups = [
        ("no-result-caching", False, CacheSpec()),
        ("result-cache-unbounded", True, CacheSpec()),
        # One byte of capacity: insertion is attempted and rejected, so
        # the cache *exists* but can never serve — ground truth False.
        ("result-cache-too-small", True,
         CacheSpec("lru", capacity_bytes=1)),
    ]
    for name, cache_results, result_spec in setups:
        _install_tier(frontend, CacheHierarchySpec(result=result_spec),
                      scale.seed, "validate-%s" % name)
        frontend.cache_results = cache_results
        frontend.result_cache = ContentCache(
            result_spec, name="%s/validate-%s" % (frontend.node.name,
                                                  name),
            seed=scale.seed, metric_prefix="fe.result_cache_")
        hits_before = frontend.result_cache_hits

        same = run_single_queries(
            scenario, service_name, frontend,
            [(vp, shared) for vp in vps], spacing=0.5)
        distinct_sessions = run_single_queries(
            scenario, service_name, frontend,
            list(zip(vps, distinct)), spacing=0.5)

        same_metrics = extract_all_calibrated(same, calibration)
        distinct_metrics = extract_all_calibrated(distinct_sessions,
                                                  calibration)
        detection = detect_result_caching(
            [m.tdynamic for m in same_metrics],
            [m.tdynamic for m in distinct_metrics])
        served = frontend.result_cache_hits - hits_before
        cases.append(CacheValidationCase(
            name=name, ground_truth_caching=served > 0,
            result_cache_hits=served, detection=detection))
        frontend.cache_results = False
    # Restore the default (infinite, never-admitting-config) cache.
    frontend.result_cache = ContentCache(
        CacheSpec(), name="%s/result" % frontend.node.name,
        seed=scale.seed, metric_prefix="fe.result_cache_")
    return cases
