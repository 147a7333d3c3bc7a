#!/usr/bin/env python
"""What-if placement analysis from measured traces.

The paper's closing motivation: use the inference framework to "guide
... better content placement and delivery strategies".  This example
measures both services from the testbed, fits the Section-2 model to
each, and answers the operator questions:

* where is the placement threshold?
* what would a client gain if the FE moved closer?
* what would it gain from a 2x faster back end?

Run::

    python examples/whatif_placement.py
"""

from repro.content.keywords import Keyword
from repro.core.metrics import extract_all_calibrated
from repro.core.whatif import advise_placement, fit_model
from repro.experiments.common import calibrate_service
from repro.measure.driver import run_dataset_b
from repro.sim import units
from repro.testbed.scenario import Scenario, ScenarioConfig


def analyse(service_name: str) -> None:
    scenario = Scenario(ScenarioConfig(seed=19, vantage_count=24))
    service = scenario.service(service_name)
    frontend = service.frontends[0]
    calibration = calibrate_service(scenario, service_name, [frontend])
    dataset = run_dataset_b(
        scenario, service_name, frontend,
        Keyword(text="what if probe", popularity=0.5, complexity=0.5),
        repeats=5, interval=1.0)
    metrics = extract_all_calibrated(dataset.sessions, calibration)

    fitted = fit_model(metrics)
    advice = advise_placement(metrics)
    model = fitted.model

    print("[%s] fitted from %d queries against %s"
          % (service_name, fitted.samples, frontend.node.name))
    print("  model: fe_delay=%.1fms, Tfetch=%.1fms, k=%d windows"
          % (units.seconds_to_ms(model.fe_delay),
             units.seconds_to_ms(model.tfetch), model.static_windows))
    print("  placement threshold: %.0f ms RTT"
          % units.seconds_to_ms(advice.threshold_rtt))
    for rtt_ms in (10, 50, 150, 250):
        rtt = units.ms(rtt_ms)
        print("  client @ %3d ms RTT: Tdynamic=%6.1f ms, %s-bound; "
              "move-FE-20ms-closer gains %5.1f ms; 2x faster back end "
              "gains %5.1f ms"
              % (rtt_ms,
                 units.seconds_to_ms(fitted.predicted_tdynamic(rtt)),
                 fitted.dominant_factor(rtt),
                 units.seconds_to_ms(fitted.placement_gain(
                     rtt, max(0.0, rtt - units.ms(20)))),
                 units.seconds_to_ms(fitted.faster_backend_gain(
                     rtt, tproc_speedup=2.0))))
    print("  advice: %s" % advice.recommendation)
    print()


def main() -> None:
    for service_name in (Scenario.GOOGLE, Scenario.BING):
        analyse(service_name)


if __name__ == "__main__":
    main()
