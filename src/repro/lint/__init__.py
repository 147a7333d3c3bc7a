"""simlint — static analysis for the simulation universe.

Seven rule packs guard the invariants the paper's numbers rest on:

* :mod:`repro.lint.determinism` (DET001-DET005) — no host clocks, OS
  entropy, shared global ``random``, salted ``hash()`` seeds, or
  set-iteration order leaking into the event queue.
* :mod:`repro.lint.determinism_flow` (DET006-DET008) — no
  nondeterministic value *flowing* into ``schedule()``, a seed, or an
  exported trace field through any cross-module call chain
  (interprocedural taint over :mod:`repro.lint.dataflow`).
* :mod:`repro.lint.unit_safety` (UNIT001-UNIT004) — suffix-checked unit
  discipline (``_ms``/``_s``/``_miles``/``_bytes``/``_bps``) with
  conversions through :mod:`repro.sim.units` only.
* :mod:`repro.lint.unit_flow` (UNIT005-UNIT009) — the same unit bugs
  on values with *no suffix anywhere on the path*: interprocedural
  unit/dimension inference (:mod:`repro.lint.simtype`) catches mixed
  arithmetic, wrong-unit ``schedule()``/histogram sinks, inconsistent
  return units, signature-disagreeing call sites, and double
  conversions; ``# simlint: unit[TOKEN]`` annotations assert units
  where no suffix fits.
* :mod:`repro.lint.event_safety` (EVT001-EVT003) — no re-entrant
  ``Simulator.run()`` (cross-module call graph), no negative constant
  delays, no discarded :class:`~repro.sim.engine.EventHandle` where
  cancellation matters.
* :mod:`repro.lint.shard_safety` (SHARD001-SHARD003) — no module-level
  state written in shard-reachable code, no set-order-dependent
  merges, no unpaired ``fork_mark()``.
* :mod:`repro.lint.effects_pack` (EFF001-EFF003) — every session-path
  side effect is replicated by the fast paths' one injection method,
  :meth:`repro.sim.executor.SessionExecutor.materialize`, and nothing
  more (interprocedural effect inference, :mod:`repro.lint.effectflow`).

Run it with ``python -m repro.lint src/repro`` (or ``python -m repro
lint ...`` / the ``repro-lint`` console script), configure it under
``[tool.simlint]`` in ``pyproject.toml``, and silence intentional
deviations with ``# simlint: ignore[RULE]`` comments.  Production
machinery: ``--format sarif`` (SARIF 2.1.0), ``--baseline`` for
incremental adoption, ``--cache`` for content-hash incremental
re-runs.  See ``docs/LINTING.md`` for the full rule catalogue.
"""

from repro.lint.framework import (
    Finding,
    FileContext,
    LintConfig,
    LintConfigError,
    LintRunner,
    Rule,
    all_rules,
    find_pyproject,
    load_config,
    register,
)
from repro.lint.project import (
    ModuleFacts,
    ProjectContext,
    ProjectRule,
    extract_module_facts,
)

__all__ = [
    "Finding",
    "FileContext",
    "LintConfig",
    "LintConfigError",
    "LintRunner",
    "ModuleFacts",
    "ProjectContext",
    "ProjectRule",
    "Rule",
    "all_rules",
    "extract_module_facts",
    "find_pyproject",
    "load_config",
    "register",
]
