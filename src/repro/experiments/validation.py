"""Model validation: the Section-2 bounds against ground truth.

The paper asserts (Eq. 1) that the unobservable fetch time satisfies
``Tdelta <= Tfetch <= Tdynamic``, and uses ``Tdynamic`` at low RTT as a
proxy for ``Tfetch`` (Section 5).  The simulation records the true
fetch time inside every front-end, so this experiment can quantify both
claims: the bound-violation rate (expected ~0) and the proxy's error as
a function of client RTT.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.analysis.stats import median
from repro.content.keywords import Keyword
from repro.core.bounds import BoundsReport, check_bounds
from repro.core.metrics import extract_all_calibrated
from repro.experiments.common import (
    ExperimentScale,
    build_scenario,
    calibrate_service,
)
from repro.measure.driver import run_dataset_b
from repro.testbed.scenario import Scenario

VALIDATION_KEYWORD = Keyword(text="bounds validation probe",
                             popularity=0.5, complexity=0.5)


@dataclass
class ValidationResult:
    """Bound validity and proxy accuracy for one service."""

    service: str
    bounds: BoundsReport
    #: (rtt, |Tdynamic - Tfetch| / Tfetch) relative proxy errors.
    proxy_errors: List[Tuple[float, float]]

    def proxy_error_below_rtt(self, rtt_cutoff: float) -> float:
        """Median relative proxy error among low-RTT clients."""
        errors = [err for rtt, err in self.proxy_errors
                  if rtt <= rtt_cutoff]
        if not errors:
            raise ValueError("no samples below RTT %.3f" % rtt_cutoff)
        return median(errors)


def run_validation(scale: Optional[ExperimentScale] = None, *,
                   service_name: str = Scenario.GOOGLE
                   ) -> ValidationResult:
    """Run a Dataset-B campaign and check Eq. 1 plus the proxy error."""
    scale = scale or ExperimentScale.small()
    scenario = build_scenario(scale)
    service = scenario.service(service_name)
    frontend = service.frontends[0]
    calibration = calibrate_service(scenario, service_name, [frontend])
    dataset = run_dataset_b(scenario, service_name, frontend,
                            VALIDATION_KEYWORD, repeats=scale.repeats,
                            interval=scale.interval)
    metrics = extract_all_calibrated(dataset.sessions, calibration)
    fetch_log = service.merged_fetch_log()
    bounds = check_bounds(metrics, fetch_log)

    proxy_errors = []
    for metric in metrics:
        record = fetch_log.get(metric.session.query_id)
        if record is None or record.tfetch is None or record.tfetch <= 0:
            continue
        error = abs(metric.tdynamic - record.tfetch) / record.tfetch
        proxy_errors.append((metric.rtt, error))
    return ValidationResult(service=service_name, bounds=bounds,
                            proxy_errors=proxy_errors)
