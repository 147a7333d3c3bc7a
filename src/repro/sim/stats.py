"""Per-campaign counters of the session executor's two sources.

:class:`ReplayStats` counts what the recorded source (the replay cache)
did and :class:`TierStats` what the tier policy (analytic model plus
divergence gate) decided.  Both are plain picklable dataclasses on one
summing base, so sharded runners merge per-shard records with ``sum()``
(or :func:`sum_stats`) and report one campaign-wide picture.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, Iterable, Optional


class SummedStats:
    """Field-wise addition for a stats dataclass.

    Integer fields add up and the ``bypasses`` reason -> count map
    merges key-wise; ``sum()`` absorbs its ``0`` start value.
    """

    def bypass(self, reason: str) -> None:
        self.bypasses[reason] = self.bypasses.get(reason, 0) + 1

    @property
    def bypassed(self) -> int:
        return sum(self.bypasses.values())

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        totals = {}
        for spec in fields(self):
            mine = getattr(self, spec.name)
            theirs = getattr(other, spec.name)
            if isinstance(mine, dict):
                merged = dict(mine)
                for reason, count in theirs.items():
                    merged[reason] = merged.get(reason, 0) + count
                totals[spec.name] = merged
            else:
                totals[spec.name] = mine + theirs
        return type(self)(**totals)

    def __radd__(self, other):
        if other == 0:  # sum() support
            return self
        return NotImplemented


@dataclass
class ReplayStats(SummedStats):
    """Replay-cache accounting for one campaign run.

    Every submission the recorded source sees lands in exactly one of
    ``hits`` (timeline replayed, no simulation), ``misses`` (simulated
    through an admissible path — recorded or used to validate an
    existing entry), or one ``bypasses`` bucket (simulated because an
    admission rule failed).
    """

    hits: int = 0
    misses: int = 0
    #: Sessions whose timeline entered the cache (unvalidated).
    recorded: int = 0
    #: First-reuse comparisons that matched and promoted an entry.
    validations: int = 0
    #: First-reuse comparisons that did NOT match (entry demoted).
    validation_failures: int = 0
    evictions: int = 0
    #: Reason -> count for submissions admission turned away.
    bypasses: Dict[str, int] = field(default_factory=dict)


@dataclass
class TierStats(SummedStats):
    """What the tier policy decided for one campaign run."""

    #: Sessions served by the closed-form model (no packet simulation).
    analytic: int = 0
    #: Sessions sent to the packet tier (bypasses plus validation
    #: samples), whether the replay cache or the engine then served them.
    simulated: int = 0
    #: Packet-tier sessions used as gate validation samples.
    validations: int = 0
    #: Validation comparisons whose landmark error exceeded tolerance.
    divergences: int = 0
    #: Strata demoted to the packet tier by the gate.
    demotions: int = 0
    #: Admission-bypass reasons -> counts (packet-tier sessions).
    bypasses: Dict[str, int] = field(default_factory=dict)


def sum_stats(parts: Iterable[Optional[SummedStats]]
              ) -> Optional[SummedStats]:
    """Sum the records present in ``parts``; None when there are none
    (every shard ran with that source off)."""
    present = [part for part in parts if part is not None]
    return sum(present) if present else None
