"""What-if analysis: placement and back-end questions from measurements.

The paper closes by arguing its inference framework should "potentially
guide us in designing better content placement and delivery strategies
for dynamic content distribution" (and cites WISE [11], the what-if
reasoning system, as inspiration).  This module delivers that step: it
fits the Section-2 abstract model to a set of measured
:class:`~repro.core.metrics.QueryMetrics` and answers the questions an
operator would ask:

* *What if the front-end moved closer/farther (RTT changed)?*
* *What if back-end processing were twice as fast?*
* *What if the FE-BE fetch path were shortened?*
* *Where is the RTT threshold below which placement stops mattering?*

The fit estimates three parameters per (service, FE) population:

* ``fe_delay`` — median Tstatic extrapolated to RTT 0;
* ``static_windows`` (k) — the slope of Tstatic against RTT;
* ``tfetch`` — median Tdynamic among low-RTT clients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.analysis.stats import linear_fit, median
from repro.core.factoring import LOW_RTT_CUTOFF
from repro.core.metrics import QueryMetrics
from repro.core.model import AbstractModel
from repro.core.threshold import ZERO_TOLERANCE

#: The fraction of Tfetch attributed to back-end processing (from the
#: Figure-9 factoring: intercept / mean).
TPROC_SHARE = 0.85

#: Samples a model fit needs.
MIN_FIT_SAMPLES = 5

#: The share of fetch-bound clients from which the back end, not
#: placement, is the lever.
FETCH_BOUND_MAJORITY = 0.5


class WhatIfError(Exception):
    """Raised when the measurements cannot support a model fit."""


@dataclass(frozen=True)
class FittedModel:
    """An :class:`AbstractModel` fitted from measurements."""

    model: AbstractModel
    samples: int
    #: Goodness of the Tstatic-vs-RTT fit (r^2), None for tiny samples.
    static_fit_r2: Optional[float]

    # ------------------------------------------------------------------
    # operator questions
    # ------------------------------------------------------------------
    def predicted_tdynamic(self, rtt: float) -> float:
        """Expected Tdynamic for a client at ``rtt``."""
        return self.model.predict_tdynamic(rtt)

    def placement_gain(self, rtt_now: float, rtt_new: float) -> float:
        """Tdynamic improvement from moving the FE (seconds, >= 0)."""
        return max(0.0, self.model.predict_tdynamic(rtt_now)
                   - self.model.predict_tdynamic(rtt_new))

    def faster_backend_gain(self, rtt: float,
                            tproc_speedup: float) -> float:
        """Tdynamic improvement if back-end processing sped up.

        ``tproc_speedup`` of 2.0 halves the processing component, the
        :data:`TPROC_SHARE` of Tfetch.
        """
        if tproc_speedup <= 0:
            raise ValueError("speedup must be positive")
        tproc = self.model.tfetch * TPROC_SHARE
        network = self.model.tfetch - tproc
        improved = AbstractModel(
            fe_delay=self.model.fe_delay,
            tfetch=network + tproc / tproc_speedup,
            static_windows=self.model.static_windows)
        return max(0.0, self.model.predict_tdynamic(rtt)
                   - improved.predict_tdynamic(rtt))

    def placement_threshold(self) -> float:
        """The RTT below which moving the FE closer stops helping."""
        return self.model.rtt_threshold()

    def dominant_factor(self, rtt: float) -> str:
        """What limits Tdynamic for a client at ``rtt``."""
        if self.model.predict_tdelta(rtt) > 0:
            return "fetch"      # Tfetch-bound: fix the back end / path
        return "delivery"       # RTT-bound: placement/last mile matters


def fit_model(metrics: Sequence[QueryMetrics]) -> FittedModel:
    """Fit the abstract model to measured metrics.

    Requires a spread of client RTTs (for the Tstatic slope) and at
    least a few clients up to :data:`LOW_RTT_CUTOFF` (for the Tfetch
    plateau).
    """
    if len(metrics) < MIN_FIT_SAMPLES:
        raise WhatIfError("need at least %d samples, got %d"
                          % (MIN_FIT_SAMPLES, len(metrics)))
    rtts = [m.rtt for m in metrics]
    tstatics = [m.tstatic for m in metrics]

    static_fit = None
    if max(rtts) - min(rtts) > 0.010:
        static_fit = linear_fit(rtts, tstatics)
    if static_fit is not None and static_fit.slope > -0.5:
        k = max(0, round(static_fit.slope))
        fe_delay = max(0.0, static_fit.intercept)
        r2 = static_fit.r_squared
    else:
        # No RTT spread: assume the FE delay is the whole Tstatic and a
        # single extra delivery window (the common case).
        k = 1
        fe_delay = max(0.0, median(tstatics) - k * median(rtts))
        r2 = None

    low_rtt = [m.tdynamic for m in metrics if m.rtt <= LOW_RTT_CUTOFF]
    if len(low_rtt) >= 3:
        tfetch = median(low_rtt)
    else:
        # Fall back to the bound midpoint over all samples.
        tfetch = median([(m.tdelta + m.tdynamic) / 2 for m in metrics])
    tfetch = max(0.0, tfetch)

    model = AbstractModel(fe_delay=fe_delay, tfetch=tfetch,
                          static_windows=int(k))
    return FittedModel(model=model, samples=len(metrics),
                       static_fit_r2=r2)


@dataclass(frozen=True)
class PlacementAdvice:
    """Operator-facing summary of a fitted population."""

    threshold_rtt: float
    tfetch: float
    fraction_fetch_bound: float
    recommendation: str


def advise_placement(metrics: Sequence[QueryMetrics]) -> PlacementAdvice:
    """Summarise whether FE placement or the fetch time is the lever.

    The paper's conclusion, operationalised: if most measured clients
    are fetch-bound (Tdelta > 0), moving FEs closer cannot help them —
    optimize Tproc / the FE-BE path instead.
    """
    fitted = fit_model(metrics)
    fetch_bound = sum(1 for m in metrics if m.tdelta > ZERO_TOLERANCE)
    fraction = fetch_bound / len(metrics)
    if fraction >= FETCH_BOUND_MAJORITY:
        recommendation = (
            "optimize the back end: %.0f%% of clients are fetch-bound; "
            "placing front-ends closer cannot improve their response "
            "times" % (fraction * 100))
    else:
        recommendation = (
            "optimize placement/last mile: %.0f%% of clients are "
            "delivery-bound; their RTT to the front-end dominates"
            % ((1 - fraction) * 100))
    return PlacementAdvice(
        threshold_rtt=fitted.placement_threshold(),
        tfetch=fitted.model.tfetch,
        fraction_fetch_bound=fraction,
        recommendation=recommendation)
