"""Determinism rule pack (DET001-DET005).

The simulator must be bit-for-bit reproducible for a fixed seed: every
stochastic decision goes through :class:`repro.sim.randomness.RandomStreams`
named streams, and simulated time comes from ``Simulator.now`` — never
from the host.  These rules catch the host leaking in.
"""

from __future__ import annotations

import ast
from typing import Set

from repro.lint.framework import Rule, register

#: Host-clock callables (resolved through import aliases).
WALL_CLOCK_CALLS = {
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}

#: OS-entropy callables — nondeterministic by design.
OS_ENTROPY_CALLS = {
    "os.urandom",
    "random.SystemRandom",
    "secrets.token_bytes", "secrets.token_hex", "secrets.token_urlsafe",
    "secrets.randbelow", "secrets.randbits", "secrets.choice",
    "uuid.uuid1", "uuid.uuid4",
}

#: Draw/seed functions on the *shared module-level* random generator.
MODULE_RANDOM_ATTRS = {
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "normalvariate", "lognormvariate",
    "expovariate", "betavariate", "triangular", "vonmisesvariate",
    "paretovariate", "weibullvariate", "getrandbits", "seed",
}

_SCHEDULE_ATTRS = {"schedule", "call_at"}


def _is_schedule_call(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _SCHEDULE_ATTRS)


def _grows_plan(node: ast.AST) -> bool:
    """``plan.append(...)``: an entry added to a query plan, the list of
    ``(time, vp, service, frontend, keyword)`` tuples ``run_queries``
    plays in list order (every experiment names it ``plan``)."""
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("append", "extend", "insert")
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "plan")


@register
class WallClockRule(Rule):
    id = "DET001"
    name = "wall-clock"
    severity = "error"
    description = ("Host wall-clock call (time.time(), datetime.now(), ...); "
                   "simulated time must come from Simulator.now.")

    def visit_Call(self, node: ast.Call) -> None:
        qual = self.ctx.qualname(node.func)
        if qual in WALL_CLOCK_CALLS:
            self.report(node, "%s() reads the host clock; use Simulator.now "
                              "for simulated time (suppress with "
                              "ignore[DET001] when timing the tool itself)"
                        % qual)


@register
class OsEntropyRule(Rule):
    id = "DET002"
    name = "os-entropy"
    severity = "error"
    description = ("OS entropy source (os.urandom, secrets.*, uuid.uuid4, "
                   "random.SystemRandom) — irreproducible by design.")

    def visit_Call(self, node: ast.Call) -> None:
        qual = self.ctx.qualname(node.func)
        if qual in OS_ENTROPY_CALLS:
            self.report(node, "%s draws OS entropy and can never be "
                              "reproduced from a seed; derive randomness "
                              "from RandomStreams instead" % qual)


@register
class ModuleRandomRule(Rule):
    id = "DET003"
    name = "module-random"
    severity = "error"
    description = ("Call on the shared module-level random generator; any "
                   "new consumer perturbs every existing draw sequence.")

    def visit_Call(self, node: ast.Call) -> None:
        qual = self.ctx.qualname(node.func)
        if not qual or "." not in qual:
            return
        module, _, attr = qual.rpartition(".")
        if module == "random" and attr in MODULE_RANDOM_ATTRS:
            self.report(node, "random.%s() uses the shared global generator; "
                              "draw from a named stream "
                              "(RandomStreams.get(...)) so adding consumers "
                              "never perturbs existing ones" % attr)


@register
class SaltedHashRule(Rule):
    id = "DET004"
    name = "salted-hash"
    severity = "error"
    description = ("Builtin hash() call or hash as a sort key; hash() is "
                   "salted per process (PYTHONHASHSEED) so results differ "
                   "between runs.")

    _SORT_CALLS = {"sorted", "min", "max"}

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        # hash() used as a sort key: sorted(x, key=hash) / xs.sort(key=hash)
        if (isinstance(func, ast.Name) and func.id in self._SORT_CALLS) or (
                isinstance(func, ast.Attribute) and func.attr == "sort"):
            for keyword in node.keywords:
                if (keyword.arg == "key"
                        and isinstance(keyword.value, ast.Name)
                        and keyword.value.id == "hash"):
                    self.report(keyword.value,
                                "hash() as a sort key gives a different "
                                "order every process; sort on a stable key "
                                "or use randomness.derive_seed")
            return
        if isinstance(func, ast.Name) and func.id == "hash":
            self.report(node, "hash() is salted per process; use "
                              "randomness.derive_seed(root_seed, name) for "
                              "a stable mapping")


@register
class SetOrderRule(Rule):
    id = "DET005"
    name = "set-order-schedule"
    severity = "error"
    description = ("Iteration over a set whose body schedules events, "
                   "directly or by adding to a query plan; set order is "
                   "insertion/hash dependent and leaks into the event "
                   "queue tie-break order.")

    def begin_file(self) -> None:
        self._set_names: Set[str] = set()

    def visit_Assign(self, node: ast.Assign) -> None:
        # Track obvious set-valued locals so `for x in s:` can be checked.
        is_set = isinstance(node.value, (ast.Set, ast.SetComp)) or (
            isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Name)
            and node.value.func.id in ("set", "frozenset"))
        for name in _target_names(node):
            if is_set:
                self._set_names.add(name)
            else:
                self._set_names.discard(name)

    def visit_For(self, node: ast.For) -> None:
        if not self._iterates_set(node.iter):
            return
        for child in ast.walk(node):
            if _is_schedule_call(child) or _grows_plan(child):
                self.report(node, "iterating a set and scheduling events "
                                  "leaks hash order into the event queue; "
                                  "iterate sorted(...) instead")
                return

    def _iterates_set(self, iterand: ast.expr) -> bool:
        if isinstance(iterand, (ast.Set, ast.SetComp)):
            return True
        if isinstance(iterand, ast.Call) and isinstance(iterand.func,
                                                        ast.Name):
            return iterand.func.id in ("set", "frozenset")
        if isinstance(iterand, ast.Name):
            return iterand.id in self._set_names
        return False


def _target_names(node: ast.stmt):
    targets = []
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        targets = [node.target]
    for target in targets:
        if isinstance(target, ast.Name):
            yield target.id
        elif isinstance(target, ast.Attribute):
            yield target.attr

