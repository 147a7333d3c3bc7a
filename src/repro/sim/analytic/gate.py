"""The divergence gate: validation sampling and stratum demotion.

The packet simulator stays the referee of the tiered executor.  Per
``(service, FE, VP)`` stratum the gate routes a deterministic, seeded
sample of admissible submissions through the packet engine, compares
the analytic prediction's landmark timeline (tb, t1, t2, t3, t4, t5,
te) against the simulated ground truth, and — when any landmark
diverges beyond tolerance — demotes the stratum: every later
submission in it bypasses the analytic tier.  Divergence exactly *at*
the tolerance passes; only strictly-beyond demotes.

Determinism: the validation cadence is a pure function of the campaign
seed and the stratum's own admissible-submission counter, and every
piece of gate state is stratum-local.  Dataset-A sharding keeps each
stratum whole inside one shard, so sharded and serial runs make
bit-identical tier decisions.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.sim.randomness import derive_seed
from repro.sim.replay.timeline import materialize_events

#: Default landmark tolerance.  Far above float-association noise
#: between the engine's chained absolute times and the model's
#: start-plus-offset arithmetic (~1e-10 s), and below one 40-byte
#: header's serialization on a 1 Gb/s link (3.2e-7 s) — the smallest
#: timing slip a genuine modeling error can produce.
DEFAULT_TOLERANCE = 2.5e-7

#: Default validation cadence: the first admissible submission of every
#: stratum, then roughly one in this many.
DEFAULT_VALIDATE_EVERY = 16

#: The Figure-2 landmarks the gate compares.
LANDMARKS = ("tb", "t1", "t2", "t3", "t4", "t5", "te")


class _Stratum:
    """Gate state for one (service, FE, VP) stratum."""

    __slots__ = ("admitted", "phase", "demoted")

    def __init__(self, phase: int):
        self.admitted = 0
        self.phase = phase
        self.demoted = False


class DivergenceGate:
    """Per-stratum tier decisions for one campaign run."""

    def __init__(self, seed: int, *,
                 tolerance: float = DEFAULT_TOLERANCE,
                 validate_every: Optional[int] = DEFAULT_VALIDATE_EVERY):
        if tolerance < 0.0:
            raise ValueError("tolerance must be non-negative")
        if validate_every is not None and validate_every < 1:
            raise ValueError("validate_every must be >= 1 or None")
        self.seed = seed
        self.tolerance = tolerance
        #: None disables validation entirely (pure analytic mode).
        self.validate_every = validate_every
        self._strata: Dict[tuple, _Stratum] = {}

    # ------------------------------------------------------------------
    def _stratum(self, key: tuple) -> _Stratum:
        stratum = self._strata.get(key)
        if stratum is None:
            phase = 0
            if self.validate_every is not None:
                # Seeded sampling phase, stable across shard layouts.
                phase = derive_seed(
                    self.seed, "tier/%s/%s/%s" % key) \
                    % self.validate_every
            stratum = _Stratum(phase)
            self._strata[key] = stratum
        return stratum

    def demoted(self, key: tuple) -> bool:
        return self._stratum(key).demoted

    def decide(self, key: tuple) -> str:
        """Route one admissible submission of stratum ``key``.

        Returns ``"demoted"`` (packet-simulate; the stratum failed a
        comparison), ``"validate"`` (packet-simulate and compare), or
        ``"analytic"``.  Counts the submission — call exactly once per
        admissible submission.
        """
        stratum = self._stratum(key)
        if stratum.demoted:
            return "demoted"
        stratum.admitted += 1
        if self.validate_every is None:
            return "analytic"
        if stratum.admitted == 1:
            # Always referee a stratum's first admissible session.
            return "validate"
        if stratum.admitted % self.validate_every == stratum.phase:
            return "validate"
        return "analytic"

    def observe(self, key: tuple,
                divergences: Dict[str, float]) -> Tuple[bool, bool]:
        """Record one validation comparison for stratum ``key``.

        ``divergences`` maps landmark names to absolute analytic-vs-
        packet errors in seconds.  Returns ``(diverged, demoted_now)``;
        an error exactly equal to the tolerance does not diverge.
        """
        worst = max(divergences.values()) if divergences else 0.0
        if worst <= self.tolerance:
            return False, False
        stratum = self._stratum(key)
        if stratum.demoted:
            return True, False
        stratum.demoted = True
        return True, True


def landmark_divergences(session, prediction,
                         tcp_host) -> Dict[str, float]:
    """Per-landmark ``|analytic - packet|`` for one validation sample.

    Both timelines go through :func:`~repro.core.metrics.
    extract_timeline` with the prediction's ground-truth stream
    boundary, so the comparison measures modeling error only — not
    extraction differences.
    """
    # Imported here, at the first validation, so that importing the
    # session executor loads none of the trace analysis
    # (tests/test_session_capture.py).
    from repro.analysis.boundary import StreamBoundary
    from repro.core.metrics import extract_timeline
    from repro.measure.session import QuerySession

    boundary = StreamBoundary(prediction.static_end,
                              prediction.dynamic_start)
    actual = extract_timeline(session, boundary)
    shim = QuerySession(
        query_id=session.query_id, service=session.service,
        vp_name=session.vp_name, fe_name=session.fe_name,
        keyword=session.keyword, started_at=session.started_at)
    shim.events = materialize_events(
        prediction.timeline, session.started_at, session.vp_name,
        session.fe_name, session.local_port, tcp_host)
    predicted = extract_timeline(shim, boundary)
    return {name: abs(getattr(actual, name) - getattr(predicted, name))
            for name in LANDMARKS}
