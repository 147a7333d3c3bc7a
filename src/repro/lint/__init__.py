"""simlint — static analysis for the simulation universe.

Five rule packs guard the invariants the paper's numbers rest on where
no runtime test can see a violation (``docs/LINTING.md`` records, per
rule, a seeded bug that only that rule catches):

* :mod:`repro.lint.determinism` (DET001-DET005) — no host clocks, OS
  entropy, shared global ``random``, the salted ``hash()``, or
  set-iteration order leaking into the event queue.
* :mod:`repro.lint.unit_safety` (UNIT001-UNIT004) — suffix-checked unit
  discipline (``_ms``/``_s``/``_miles``/``_bytes``/``_bps``) with
  conversions through :mod:`repro.sim.units` only.
* :mod:`repro.lint.event_safety` (EVT001-EVT003) — no re-entrant
  ``Simulator.run()`` (cross-module call graph), no negative constant
  delays, no discarded :class:`~repro.sim.engine.EventHandle` where
  cancellation matters.
* :mod:`repro.lint.shard_safety` (SHARD001-SHARD002) — no module-level
  state written in shard-reachable code, no set-order-dependent
  merges.
* :mod:`repro.lint.rng_lineage` (RNG002-RNG003) — keyed RNG lineage:
  no colliding key namespaces, no ordinal counters shared between
  methods.

The fast paths' server-side footprint, which the removed effect-parity
pack checked statically, is asserted at runtime by
``tests/test_analytic_tier.py::test_fast_paths_leave_the_packet_footprint``.

Run it with ``python -m repro.lint src/repro`` (or ``python -m repro
lint ...`` / the ``repro-lint`` console script), configure it under
``[tool.simlint]`` in ``pyproject.toml``, and silence intentional
deviations with ``# simlint: ignore[RULE]`` comments.  ``--format
sarif`` emits SARIF 2.1.0.  See ``docs/LINTING.md`` for the full rule
catalogue and ``benchmarks/lint_audit.py`` for the mutation audit.
"""

from repro.lint.framework import (
    LintConfig,
    LintConfigError,
    LintRunner,
    all_rules,
    load_config,
)

__all__ = [
    "LintConfig",
    "LintConfigError",
    "LintRunner",
    "all_rules",
    "load_config",
]
