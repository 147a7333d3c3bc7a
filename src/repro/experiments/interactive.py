"""Section 6: the interactive "search as you type" feature.

The paper's preliminary finding: with interactive search, every letter
typed triggers a *separate query on a new TCP connection*, so each
delivery still fits the basic model; back-end processing is likely
cheaper for the later queries because successive prefixes are highly
correlated.

The runner emulates a user typing a phrase letter by letter: one query
per prefix, each on a fresh connection, with the back-end giving
correlated follow-up prefixes a processing discount (rising effective
popularity).  It verifies that every per-letter session still satisfies
the model's timeline and bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.content.keywords import Keyword
from repro.core.bounds import BoundsReport, check_bounds
from repro.core.metrics import QueryMetrics, extract_all_calibrated
from repro.experiments.common import (
    ExperimentScale,
    build_scenario,
    calibrate_service,
)
from repro.measure.driver import run_queries
from repro.testbed.scenario import Scenario

#: Seconds between keystrokes (a fast typist).
KEYSTROKE_INTERVAL = 0.180


def prefix_keywords(phrase: str, *, base_popularity: float = 0.3,
                    correlation_discount: float = 0.6) -> List[Keyword]:
    """One keyword per typed prefix of ``phrase``.

    Later prefixes get higher effective popularity: the back-end has
    just computed a highly correlated query, so its caches are hot —
    the mechanism the paper hypothesises for reduced processing times.
    """
    prefixes = []
    words_typed = ""
    for index, char in enumerate(phrase):
        words_typed += char
        if char == " ":
            continue
        progress = index / max(1, len(phrase) - 1)
        popularity = min(1.0, base_popularity
                         + correlation_discount * progress)
        prefixes.append(Keyword(text=words_typed,
                                popularity=popularity,
                                complexity=0.3,
                                granularity=max(1, len(words_typed.split()))))
    return prefixes


@dataclass
class InteractiveResult:
    """Per-keystroke metrics of one interactive search session."""

    service: str
    phrase: str
    metrics: List[QueryMetrics] = field(default_factory=list)
    bounds: Optional[BoundsReport] = None

    @property
    def queries(self) -> int:
        return len(self.metrics)

    def distinct_connections(self) -> int:
        return len({m.session.local_port for m in self.metrics})

    def tdynamic_trend(self) -> float:
        """Late-half minus early-half median Tdynamic (negative = the
        correlated follow-ups got faster, the paper's hypothesis)."""
        values = [m.tdynamic for m in self.metrics]
        half = len(values) // 2
        early = sorted(values[:half])[half // 2]
        late = sorted(values[half:])[(len(values) - half) // 2]
        return late - early


def run_interactive(scale: Optional[ExperimentScale] = None, *,
                    service_name: str = Scenario.GOOGLE,
                    phrase: str = "dynamic content distribution"
                    ) -> InteractiveResult:
    """Emulate typing ``phrase`` and measure every per-letter query."""
    scale = scale or ExperimentScale.small()
    scenario = build_scenario(scale)
    service = scenario.service(service_name)
    vp = scenario.vantage_points[0]
    frontend = scenario.default_frontend(service_name, vp)
    calibration = calibrate_service(scenario, service_name, [frontend], vp)

    # One query per keystroke.
    plan = []
    time = scenario.sim.now
    for keyword in prefix_keywords(phrase):
        plan.append((time, vp, service_name, frontend, keyword))
        time = time + KEYSTROKE_INTERVAL
    sessions = run_queries(scenario, plan)[vp.name]

    metrics = extract_all_calibrated(sessions, calibration)
    result = InteractiveResult(service=service_name, phrase=phrase,
                               metrics=metrics)
    result.bounds = check_bounds(metrics, service.merged_fetch_log())
    return result
