"""Effect-parity rule pack (EFF001-EFF003).

A session-replay cache hit (:mod:`repro.sim.replay`) or an analytic
injection (:mod:`repro.sim.analytic`) never drives the TCP stack, so
every side effect a simulated session leaves on the session path —
``tcp/``, ``services/``, ``measure/`` — must be replicated by the one
method both fast paths inject through,
:meth:`~repro.sim.executor.SessionExecutor.materialize` (the
*replication root*).  The rules compare the root's derived effect
closure (:mod:`repro.lint.effectflow`) with the session path's effect
sites, so an effect hidden one helper call away from the root still
counts:

* EFF001 — a session-path effect signature missing from the effect
  closure of the replication root: the fast path genuinely does not
  reproduce it, wherever the replication would have been buried;
* EFF002 — an effect performed by the replication root's module that
  is neither part of the derived session contract nor delegated to
  session-path code: over-replication that fabricates ground truth the
  packet path never wrote;
* EFF003 — one obs metric name written with conflicting ``sim``/
  ``host`` scopes across the session path and the replication
  closure, which silently splits one counter into two.

Constructor bodies (``__init__``) are exempt from *site* collection —
effects there are topology setup that happens before any session
exists — but still contribute to closures.  The rules stand down when
the linted file set has no replication root or no session-path modules
(linting ``tests/`` alone must not light up).
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.lint.effectflow import (
    EffectAnalysis,
    EffectSite,
    PARITY_KINDS,
    is_session_module,
    replication_roots,
    shared_effects,
)
from repro.lint.framework import register
from repro.lint.project import (
    FunctionFacts,
    ModuleFacts,
    ProjectContext,
    ProjectRule,
)


def _parity_sites(analysis: EffectAnalysis, qualname: str
                  ) -> List[EffectSite]:
    """Parity-kind effect sites of one function, [] for ``__init__``."""
    _facts, fn = analysis.project.functions[qualname]
    if fn.name == "__init__":
        return []
    return [site for site in analysis.sites.get(qualname, ())
            if site.effect[0] in PARITY_KINDS]


def _session_sites(analysis: EffectAnalysis
                   ) -> List[Tuple[ModuleFacts, FunctionFacts,
                                   EffectSite]]:
    """Every parity site in session-path modules, in stable order."""
    out = []
    for qualname in sorted(analysis.sites):
        facts, fn = analysis.project.functions[qualname]
        if not is_session_module(facts):
            continue
        for site in _parity_sites(analysis, qualname):
            out.append((facts, fn, site))
    out.sort(key=lambda item: (str(item[0].path), item[2].line,
                               item[2].effect[1]))
    return out


def _contract(analysis: EffectAnalysis, roots: List[str]) -> Set[str]:
    """The replicated-effect contract, derived from the code.

    A signature belongs iff (a) every replication root's effect closure
    contains it — the fast path replicates it — and (b) at least one
    session-path site performs it — it is real packet-path ground
    truth, not replication machinery.
    """
    contract = {site.effect[1]
                for _facts, _fn, site in _session_sites(analysis)}
    for root in roots:
        contract &= {effect[1] for effect in analysis.closure(root)
                     if effect[0] in PARITY_KINDS}
    return contract


class _EffRule(ProjectRule):
    """Shared stand-down logic for the closure-parity rules."""

    scope = "project"

    def check(self, project: ProjectContext) -> None:
        roots = replication_roots(project)
        if not roots:
            return
        analysis = shared_effects(project)
        if not any(is_session_module(facts)
                   for facts in project.modules.values()):
            return
        self.check_effects(project, analysis, roots)

    def check_effects(self, project: ProjectContext,
                      analysis: EffectAnalysis,
                      roots: List[str]) -> None:
        raise NotImplementedError


@register
class MissingReplicationRule(_EffRule):
    id = "EFF001"
    name = "missing-replication"
    severity = "error"
    description = ("Session-path effect signature absent from a "
                   "replication root's derived effect closure; the "
                   "fast path does not reproduce it.")

    def check_effects(self, project: ProjectContext,
                      analysis: EffectAnalysis,
                      roots: List[str]) -> None:
        closures = {
            root: {effect[1] for effect in analysis.closure(root)
                   if effect[0] in PARITY_KINDS}
            for root in roots}
        for facts, _fn, site in _session_sites(analysis):
            signature = site.effect[1]
            missing = [root for root in roots
                       if signature not in closures[root]]
            if not missing:
                continue
            self.report(
                facts.path, site.line,
                "session-path effect %r is missing from the derived "
                "effect closure of %s; a fast-path hit would not "
                "reproduce it — replicate it there"
                % (signature,
                   " and ".join(_short(root) for root in missing)))


@register
class OverReplicationRule(_EffRule):
    id = "EFF002"
    name = "over-replication"
    severity = "error"
    description = ("Replication-root module performs an effect outside "
                   "the derived session contract; a fast-path hit "
                   "fabricates ground truth the packet path never "
                   "wrote.")

    def check_effects(self, project: ProjectContext,
                      analysis: EffectAnalysis,
                      roots: List[str]) -> None:
        derived = _contract(analysis, roots)
        root_modules = {analysis.project.functions[root][0].module
                        for root in roots}
        for qualname in sorted(analysis.sites):
            facts, fn = project.functions[qualname]
            if facts.module not in root_modules:
                continue
            for site in _parity_sites(analysis, qualname):
                signature = site.effect[1]
                if signature in derived:
                    continue
                if self._delegates_to_session(project, facts, fn, site):
                    continue
                self.report(
                    facts.path, site.line,
                    "replication-root effect %r is outside the derived "
                    "session-path contract; a fast-path hit would "
                    "fabricate ground truth the packet path never "
                    "wrote — remove it or add the session-path effect "
                    "it replicates" % signature)

    @staticmethod
    def _delegates_to_session(project: ProjectContext,
                              facts: ModuleFacts, fn: FunctionFacts,
                              site: EffectSite) -> bool:
        """True when the site is a call into session-path code — the
        *mechanism* of replication (``record_replayed_fetch``,
        ``capture.inject``), not an effect of its own."""
        for call in fn.calls:
            if call.line != site.line:
                continue
            for callee in project.resolve_call(facts, fn, call):
                callee_facts = project.functions[callee][0]
                if is_session_module(callee_facts):
                    return True
        return False


@register
class MetricScopeMismatchRule(_EffRule):
    id = "EFF003"
    name = "metric-scope-mismatch"
    severity = "error"
    description = ("One obs metric name written with conflicting "
                   "sim/host scopes across the session path and the "
                   "replication closures.")

    def check_effects(self, project: ProjectContext,
                      analysis: EffectAnalysis,
                      roots: List[str]) -> None:
        in_closure = set(analysis.reachable_from(roots))
        by_name: Dict[str, Dict[str, Tuple[str, int]]] = {}
        for qualname in sorted(analysis.sites):
            facts, fn = project.functions[qualname]
            relevant = (is_session_module(facts)
                        or qualname in in_closure)
            if not relevant or fn.name == "__init__":
                continue
            for site in analysis.sites[qualname]:
                kind, name, scope = site.effect
                if kind != "metric" or "*" in name \
                        or scope not in ("sim", "host"):
                    continue
                scopes = by_name.setdefault(name, {})
                where = (str(facts.path), site.line)
                if scope not in scopes or where < scopes[scope]:
                    scopes[scope] = where
        for name in sorted(by_name):
            scopes = by_name[name]
            if len(scopes) < 2:
                continue
            path, line = min(scopes.values())
            self.report(
                path, line,
                "obs metric %r is written with conflicting scopes "
                "(%s) across the session path and the replication "
                "closures; pick one scope or split the metric name"
                % (name, ", ".join("%s at %s:%d" % (s, p, l)
                                   for s, (p, l)
                                   in sorted(scopes.items()))))


def _short(qualname: str) -> str:
    parts = qualname.split(".")
    return ".".join(parts[-2:]) if len(parts) > 2 else qualname
