"""Event-safety rule pack (EVT001-EVT003).

:class:`repro.sim.engine.Simulator` has three sharp edges these rules
guard: ``run()`` is not re-entrant (calling it from a scheduled callback
raises at runtime — deep in a campaign, hours in), ``schedule()``
rejects negative delays, and cancellation requires keeping the
:class:`EventHandle` that ``schedule()`` returns.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set, Tuple

from repro.lint.framework import Rule, ancestors, register
from repro.lint.project import (
    ProjectContext,
    ProjectRule,
    SCHEDULE_ATTRS,
)


def _schedule_call(node: ast.AST) -> Optional[ast.Call]:
    if (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in SCHEDULE_ATTRS):
        return node
    return None


@register
class ReentrantRunRule(ProjectRule):
    """EVT001, rebuilt on the cross-module call graph.

    The old rule closed over same-file calls only, so a scheduled
    callback that reached ``Simulator.run()`` through a helper in
    another module passed silently.  This version walks the
    project-wide call graph (``tests/data/lint/proj_evt`` holds the
    exact cross-file case the old rule missed); same-file resolution is
    a subset of the new graph, so findings are a superset of before.
    """

    id = "EVT001"
    name = "reentrant-run"
    severity = "error"
    description = ("Simulator.run() reachable from a scheduled callback "
                   "(through any cross-module call chain); the engine "
                   "is not re-entrant and raises SimulationError at "
                   "runtime.")
    scope = "project"

    def check(self, project: ProjectContext) -> None:
        roots: List[str] = []
        for fq in sorted(project.functions):
            facts, fn = project.functions[fq]
            for call in fn.calls:
                # Lambda callbacks carry their sim-run sites directly.
                for line, col in call.lambda_runs:
                    self.report(facts.path, line,
                                "scheduled lambda calls Simulator.run(); "
                                "the engine is not re-entrant", col=col)
                if call.callback:
                    roots.extend(project.resolve_callback(
                        facts, call.callback))
        parents = project.reachable_from(roots)
        reported: Set[Tuple[str, int]] = set()
        for fq in sorted(parents):
            facts, fn = project.functions[fq]
            for call in fn.calls:
                if not call.is_sim_run:
                    continue
                key = (facts.path, call.line)
                if key in reported:
                    continue
                reported.add(key)
                self.report(
                    facts.path, call.line,
                    "Simulator.run() is reachable from a scheduled "
                    "callback (%s); the engine is not re-entrant — "
                    "restructure as scheduled events"
                    % project.witness_chain(parents, fq),
                    col=call.col)


@register
class NegativeDelayRule(Rule):
    id = "EVT002"
    name = "negative-delay"
    severity = "error"
    description = ("A constant negative delay is passed to "
                   "Simulator.schedule(); the engine raises "
                   "SchedulingError for delays in the past.")

    def visit_Call(self, node: ast.Call) -> None:
        call = _schedule_call(node)
        if call is None or call.func.attr != "schedule":  # type: ignore
            return
        delay: Optional[ast.expr] = call.args[0] if call.args else None
        for keyword in call.keywords:
            if keyword.arg == "delay":
                delay = keyword.value
        value = _constant_value(delay)
        if value is not None and value < 0:
            self.report(delay or call,
                        "schedule() is given the constant negative delay "
                        "%r; the engine refuses to schedule in the past — "
                        "use 0.0 for \"now\"" % value)


@register
class DroppedHandleRule(Rule):
    id = "EVT003"
    name = "dropped-handle"
    severity = "warning"
    description = ("schedule()/call_at() result discarded in a scope that "
                   "cancels timers elsewhere; without the EventHandle the "
                   "event can never be cancelled.")

    def begin_file(self) -> None:
        self._dropped: List[Tuple[ast.Call, Optional[ast.ClassDef]]] = []

    def visit_Expr(self, node: ast.Expr) -> None:
        call = _schedule_call(node.value)
        if call is None:
            return
        enclosing = None
        for ancestor in ancestors(node):
            if isinstance(ancestor, ast.ClassDef):
                enclosing = ancestor
                break
        self._dropped.append((call, enclosing))

    def end_file(self) -> None:
        if not self._dropped:
            return
        cancelling_classes, module_cancels = self._cancel_sites()
        for call, enclosing in self._dropped:
            cancels_nearby = (enclosing in cancelling_classes
                              if enclosing is not None else module_cancels)
            if cancels_nearby:
                self.report(call, "EventHandle from %s() is discarded, but "
                                  "this %s cancels timers elsewhere; keep "
                                  "the handle if this event may ever need "
                                  "cancelling"
                            % (call.func.attr,  # type: ignore[union-attr]
                               "class" if enclosing is not None
                               else "module"))

    def _cancel_sites(self) -> Tuple[Set[ast.ClassDef], bool]:
        classes: Set[ast.ClassDef] = set()
        module_level = False
        for node in ast.walk(self.ctx.tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "cancel"):
                owner = None
                for ancestor in ancestors(node):
                    if isinstance(ancestor, ast.ClassDef):
                        owner = ancestor
                        break
                if owner is not None:
                    classes.add(owner)
                else:
                    module_level = True
        return classes, module_level


def _constant_value(node: Optional[ast.expr]) -> Optional[float]:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = _constant_value(node.operand)
        return -inner if inner is not None else None
    if isinstance(node, ast.Constant) and isinstance(node.value,
                                                     (int, float)):
        return float(node.value)
    return None
