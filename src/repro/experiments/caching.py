"""Section 3: do front-end servers cache search results?

The paper's two-condition experiment against a fixed FE — every node
submitting the *same* keyword versus every node submitting a *different*
keyword — compared via the Tdynamic distributions.  The conclusion for
the real services was "no".

The runner reproduces both conditions, and can also run the
*counterfactual* (a deployment whose FEs do cache results, with
``FrontEndServer.cache_results`` set) to show the detector fires when
caching exists — a positive control the original study could not
perform.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.content.keywords import Keyword, KeywordCatalog
from repro.core.cache_detect import CacheDetectionResult, detect_result_caching
from repro.core.metrics import extract_all_calibrated
from repro.experiments.common import (
    ExperimentScale,
    calibrate_service,
)
from repro.measure.driver import run_single_queries
from repro.services.deployment import bing_akamai_profile, google_like_profile
from repro.testbed.scenario import Scenario, ScenarioConfig


@dataclass
class CachingExperimentResult:
    """Outcome of the Section-3 caching experiment."""

    service: str
    caching_enabled_in_simulator: bool
    detection: CacheDetectionResult
    same_samples: int
    distinct_samples: int

    @property
    def detector_correct(self) -> bool:
        """Did the detector match the simulator's ground truth?"""
        return (self.detection.caching_detected
                == self.caching_enabled_in_simulator)


def run_caching_experiment(scale: Optional[ExperimentScale] = None, *,
                           fe_caches_results: bool = False
                           ) -> CachingExperimentResult:
    """Run both query conditions and the detector on the Bing-like
    service.

    ``fe_caches_results=True`` builds the counterfactual deployment in
    which front-end servers *do* cache dynamically generated results.
    """
    scale = scale or ExperimentScale.small()
    service_name = Scenario.BING
    scenario = _caching_scenario(scale) if fe_caches_results else Scenario(
        ScenarioConfig(seed=scale.seed,
                       vantage_count=scale.vantage_count),
        google_profile=google_like_profile(),
        bing_profile=bing_akamai_profile())
    service = scenario.service(service_name)
    frontend = service.frontends[0]
    calibration = calibrate_service(scenario, service_name, [frontend])

    # Caching manifests in Tdynamic only where the fetch (not the
    # client-leg delivery) dominates, i.e. for low-RTT nodes — the
    # paper's common case (80% of nodes saw <20 ms to the CDN FEs).
    vps = sorted(scenario.vantage_points,
                 key=lambda vp: scenario.client_fe_rtt(vp, frontend,
                                                       service))
    vps = vps[:max(8, scale.vantage_count // 2)]
    catalog = KeywordCatalog(seed=scale.seed + 7)
    shared = Keyword(text="mobile cloud computing", popularity=0.9,
                     complexity=0.3, suggested=True)
    pool = catalog.bulk_pool(count=len(vps))

    # Condition 1: everyone asks the same query, sequentially.
    same_sessions = run_single_queries(
        scenario, service_name, frontend,
        [(vp, shared) for vp in vps], spacing=0.5)
    # Condition 2: everyone asks a different query.
    distinct_sessions = run_single_queries(
        scenario, service_name, frontend,
        list(zip(vps, pool)), spacing=0.5)

    same_metrics = extract_all_calibrated(same_sessions, calibration)
    distinct_metrics = extract_all_calibrated(distinct_sessions,
                                              calibration)
    detection = detect_result_caching(
        [m.tdynamic for m in same_metrics],
        [m.tdynamic for m in distinct_metrics])
    return CachingExperimentResult(
        service=service_name,
        caching_enabled_in_simulator=fe_caches_results,
        detection=detection,
        same_samples=len(same_metrics),
        distinct_samples=len(distinct_metrics))


def _caching_scenario(scale: ExperimentScale) -> Scenario:
    """A scenario whose deployments cache dynamic results at the FE."""
    config = ScenarioConfig(seed=scale.seed,
                            vantage_count=scale.vantage_count)
    # Build normally, then flip the flag before any traffic flows (the
    # caches are empty at this point, so the change is consistent).
    scenario = Scenario(config)
    for service in scenario.services.values():
        for frontend in service.frontends:
            frontend.cache_results = True
    return scenario
