"""The tier policy: analytic bulk, packet-level referee.

The :class:`~repro.sim.executor.SessionExecutor` asks one
:class:`TieredSessionManager` per ``analytic``/``auto`` campaign about
every submission, before any other source.  The policy decides between

* **bypass** — an admission rule (campaign, path, analytic-path, or
  temporal) failed, the stratum was demoted, or the query falls outside
  the model; the session goes to the packet tier and the reason is
  counted;
* **validate** — admissible, but the gate's deterministic sample picked
  this submission: the packet tier serves it, then the analytic
  prediction's landmarks are compared against it and the stratum is
  demoted on divergence;
* **analytic** — the executor materializes the closed-form prediction
  without packet simulation.

All tier decisions are stratum-local and seeded, so a sharded campaign
(whose partition keeps strata whole) makes the same decisions as a
serial one, bit for bit.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

from repro.obs import runtime as _obs
from repro.obs.metrics import SCOPE_SIM
from repro.sim.analytic.gate import (
    DEFAULT_TOLERANCE,
    DEFAULT_VALIDATE_EVERY,
    DivergenceGate,
    landmark_divergences,
)
from repro.sim.analytic.predictor import AnalyticPredictor, analytic_path_reason
from repro.sim.replay.timeline import RecordedTimeline
from repro.sim.stats import TierStats

#: Valid values for the campaign tier policy.
TIER_MODES = ("packet", "analytic", "auto")

#: Histogram bounds for per-landmark divergence observations.  Centered
#: on the gate tolerance (2.5e-7 s) so the exported histograms show at
#: a glance whether predictions sit at float noise or near demotion.
DIVERGENCE_BOUNDS = (1e-10, 1e-9, 1e-8, 1e-7, 2.5e-7,
                     1e-6, 1e-5, 1e-4, 1e-3)  # simlint: unit[s]


def tier_mode(explicit: Optional[str] = None) -> str:
    """Resolve the campaign tier policy (explicit > env > packet).

    The ``REPRO_TIER`` env var supplies the default; the CLI's
    ``--tier`` flag sets it.  ``packet`` keeps the existing behavior.
    """
    value = explicit if explicit is not None \
        else os.environ.get("REPRO_TIER", "")
    value = value.strip().lower() or "packet"
    if value not in TIER_MODES:
        raise ValueError("tier must be one of %s, got %r"
                         % ("/".join(TIER_MODES), value))
    return value


class _PendingValidation:
    """A packet-tier validation sample awaiting completion."""

    __slots__ = ("stratum", "prediction", "tcp_host")

    def __init__(self, stratum: tuple, prediction, tcp_host):
        self.stratum = stratum
        self.prediction = prediction
        self.tcp_host = tcp_host


class TieredSessionManager:
    """Per-campaign tier policy (modes ``analytic`` / ``auto``).

    ``auto`` runs the full gate policy — per-stratum seeded validation
    samples plus divergence demotion.  ``analytic`` trusts the model
    outright (no validation samples at all); admission bypasses still go
    to the packet tier in both modes, so inadmissible sessions are
    always ground truth.
    """

    def __init__(self, scenario, *, mode: str = "auto",
                 tolerance: float = DEFAULT_TOLERANCE,
                 validate_every: int = DEFAULT_VALIDATE_EVERY):
        if mode not in ("analytic", "auto"):
            raise ValueError(
                "mode must be 'analytic' or 'auto' (the packet tier "
                "needs no policy), got %r" % (mode,))
        self.scenario = scenario
        self.mode = mode
        self.predictor = AnalyticPredictor(scenario)
        self.gate = DivergenceGate(
            scenario.streams.seed, tolerance=tolerance,
            validate_every=(validate_every if mode == "auto" else None))
        self.stats = TierStats()

    # ------------------------------------------------------------------
    # the tier's own admission rules (the executor slots them into its
    # shared chain)
    # ------------------------------------------------------------------
    def path_reason(self, service_name: str, frontend) -> Optional[str]:
        return analytic_path_reason(self.scenario, service_name, frontend)

    def warming_up(self, service_name: str, frontend, vp_name: str,
                   now: float) -> bool:
        # The FE-BE pool handshakes may still occupy those links.
        path = self.predictor.path(service_name, frontend, vp_name)
        return now < path.warmup_horizon

    # ------------------------------------------------------------------
    def route(self, emulator, service_name: str, frontend, keyword,
              guard: float, reason: Optional[str]
              ) -> Tuple[Optional[RecordedTimeline],
                         Optional[_PendingValidation]]:
        """Route one submission through the tier policy.

        ``reason`` is the failed admission rule, or None.  Returns
        ``(timeline, None)`` to serve the session analytically, else
        ``(None, pending)`` for the packet tier: ``pending`` is the
        validation to settle once the session completes, None for a
        bypass.
        """
        stratum = (service_name, frontend.node.name, emulator.vp.name)
        if reason is None and self.gate.demoted(stratum):
            reason = "gate-demoted"
        prediction = None
        if reason is None:
            prediction, reason = self.predictor.predict(
                service_name, frontend, emulator.vp.name, keyword,
                emulator.peek_query_id(), guard)
        if reason is not None:
            self.stats.bypass(reason)
            self._count("tier.bypass.%s" % reason)
            self._count_simulated()
            return None, None

        if self.gate.decide(stratum) == "validate":
            self.stats.validations += 1
            self._count("tier.validations")
            self._count_simulated()
            return None, _PendingValidation(stratum, prediction,
                                            emulator.tcp_host)
        self.stats.analytic += 1
        self._count("tier.analytic_sessions")
        return prediction.timeline, None

    def settle(self, session, pending: _PendingValidation) -> None:
        """Compare one completed validation sample with its prediction."""
        if session.failed is not None or not session.events:
            self.expire(pending)
            return
        divergences = landmark_divergences(session, pending.prediction,
                                           pending.tcp_host)
        if _obs.enabled:
            for name, value in divergences.items():
                _obs.metrics.observe("tier.divergence.%s" % name, value,
                                     bounds=DIVERGENCE_BOUNDS,
                                     scope=SCOPE_SIM)
        self._observe(pending.stratum, divergences)

    def expire(self, pending: _PendingValidation) -> None:
        """A sample that never completed is unconditionally divergent:
        the model predicted a completion the packet tier never
        delivered."""
        self._observe(pending.stratum, {"te": float("inf")})

    def finalize(self) -> TierStats:
        """The run's stats; the executor calls this once per campaign,
        after settling and expiring every pending sample."""
        return self.stats

    # ------------------------------------------------------------------
    def _observe(self, stratum: tuple, divergences: Dict[str, float]
                 ) -> None:
        diverged, demoted_now = self.gate.observe(stratum, divergences)
        if diverged:
            self.stats.divergences += 1
            self._count("tier.divergences")
        if demoted_now:
            self.stats.demotions += 1
            self._count("tier.demotions")

    def _count_simulated(self) -> None:
        self.stats.simulated += 1
        self._count("tier.simulated_sessions")

    @staticmethod
    def _count(name: str) -> None:
        if _obs.enabled:
            _obs.metrics.inc(name, scope=SCOPE_SIM)
