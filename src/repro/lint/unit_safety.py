"""Unit-safety rule pack (UNIT001-UNIT004).

The tree-wide convention (see ``src/repro/sim/units.py``): simulator
time is **seconds**; milliseconds, microseconds, miles, bytes, and bit
rates appear in names via suffixes (``rtt_ms``, ``distance_miles``,
``size_bytes``, ``bandwidth_bps``).  These rules catch a suffixed value
crossing into a differently-suffixed slot without going through a
:mod:`repro.sim.units` conversion helper.
"""

from __future__ import annotations

import ast
from typing import Dict, Optional, Tuple

from repro.lint.framework import Rule, register

#: Recognised suffixes, longest first so ``_bytes_per_s`` wins over ``_s``.
#: Each maps to a (dimension, unit) pair.
SUFFIX_UNITS: Tuple[Tuple[str, Tuple[str, str]], ...] = (
    ("_bytes_per_s", ("rate", "bytes_per_s")),
    ("_miles_per_s", ("speed", "miles_per_s")),
    ("_per_s", ("rate", "per_s")),
    ("_seconds", ("time", "s")),
    ("_secs", ("time", "s")),
    ("_sec", ("time", "s")),
    ("_ns", ("time", "ns")),
    ("_us", ("time", "us")),
    ("_ms", ("time", "ms")),
    ("_s", ("time", "s")),
    ("_miles", ("distance", "miles")),
    ("_km", ("distance", "km")),
    ("_bytes", ("size", "bytes")),
    ("_kb", ("size", "kb")),
    ("_mb", ("size", "mb")),
    ("_gbps", ("rate", "gbps")),
    ("_mbps", ("rate", "mbps")),
    ("_kbps", ("rate", "kbps")),
    ("_bps", ("rate", "bps")),
)

#: Return units of the repro.sim.units conversion helpers, keyed by the
#: final two segments of the resolved qualified name.
CONVERSION_RETURNS: Dict[str, Tuple[str, str]] = {
    "units.ms": ("time", "s"),
    "units.us": ("time", "s"),
    "units.seconds_to_ms": ("time", "ms"),
    "units.kbps": ("rate", "bytes_per_s"),
    "units.mbps": ("rate", "bytes_per_s"),
    "units.gbps": ("rate", "bytes_per_s"),
    "units.propagation_delay": ("time", "s"),
    "units.transmission_delay": ("time", "s"),
}

#: Parameter units of the conversion helpers (positional, by index).
CONVERSION_PARAMS: Dict[str, Tuple[Optional[Tuple[str, str]], ...]] = {
    "units.ms": ((("time", "ms")),),
    "units.us": ((("time", "us")),),
    "units.seconds_to_ms": ((("time", "s")),),
    "units.kbps": ((("rate", "kbps")),),
    "units.mbps": ((("rate", "mbps")),),
    "units.gbps": ((("rate", "gbps")),),
    "units.propagation_delay": (("distance", "miles"), None),
    "units.transmission_delay": (("size", "bytes"), ("rate", "bytes_per_s")),
}

#: Simulator scheduling entry points take seconds in their first slot.
SCHEDULE_PARAM_UNITS: Dict[str, Tuple[str, str]] = {
    "schedule": ("time", "s"),
    "call_at": ("time", "s"),
}

def unit_of_name(name: str) -> Optional[Tuple[str, str]]:
    """Map an identifier to its (dimension, unit), or None if unsuffixed.

    Case-insensitive, so literal-carrying module constants
    (``SPEED_OF_LIGHT_MILES_PER_S``) seed the same units as locals.
    """
    lowered = name.lower()
    for suffix, unit in SUFFIX_UNITS:
        if lowered.endswith(suffix) and len(lowered) > len(suffix):
            return unit
    return None


def describe(unit: Tuple[str, str]) -> str:
    return "%s [%s]" % (unit[1], unit[0])


def mismatch_kind(left: Tuple[str, str], right: Tuple[str, str]) -> str:
    if left[0] == right[0]:
        return "same dimension, different scale"
    return "different dimensions"


class _UnitRule(Rule):
    """Shared expression-unit inference for the UNIT rules."""

    def expr_unit(self, node: ast.expr) -> Optional[Tuple[str, str]]:
        if isinstance(node, ast.Name):
            return unit_of_name(node.id)
        if isinstance(node, ast.Attribute):
            return unit_of_name(node.attr)
        if isinstance(node, ast.Call):
            return self.conversion_return(node)
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.Add, ast.Sub)):
            left = self.expr_unit(node.left)
            if left is not None and left == self.expr_unit(node.right):
                return left
        return None

    def conversion_qual(self, node: ast.Call) -> Optional[str]:
        # `from repro.sim import units; units.ms(...)` and
        # `from repro.sim.units import ms; ms(...)` both resolve (through
        # the import table) to repro.sim.units.ms — match on the tail.
        qual = self.ctx.qualname(node.func)
        if not qual:
            return None
        tail = ".".join(qual.split(".")[-2:])
        return tail if tail in CONVERSION_RETURNS else None

    def conversion_return(self, node: ast.Call
                          ) -> Optional[Tuple[str, str]]:
        tail = self.conversion_qual(node)
        return CONVERSION_RETURNS[tail] if tail else None


@register
class ArgumentUnitRule(_UnitRule):
    id = "UNIT001"
    name = "argument-unit"
    severity = "error"
    description = ("A suffixed value is passed where a parameter with an "
                   "incompatible unit suffix is expected.")

    def begin_file(self) -> None:
        # Positional checking needs callee signatures; collect every
        # function/method defined in this file, keyed by bare name.
        self._signatures: Dict[str, Tuple[str, ...]] = {}
        for node in ast.walk(self.ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                params = tuple(arg.arg for arg in node.args.args)
                if params and params[0] in ("self", "cls"):
                    params = params[1:]
                if node.name in self._signatures and \
                        self._signatures[node.name] != params:
                    self._signatures[node.name] = ()  # ambiguous overloads
                else:
                    self._signatures[node.name] = params

    def visit_Call(self, node: ast.Call) -> None:
        self._check_keywords(node)
        self._check_positionals(node)

    def _check_keywords(self, node: ast.Call) -> None:
        for keyword in node.keywords:
            if keyword.arg is None:
                continue
            expected = unit_of_name(keyword.arg)
            actual = self.expr_unit(keyword.value)
            if expected and actual and expected != actual:
                self.report(keyword.value,
                            "argument %r expects %s but receives %s (%s); "
                            "convert via repro.sim.units first"
                            % (keyword.arg, describe(expected),
                               describe(actual),
                               mismatch_kind(expected, actual)))

    def _check_positionals(self, node: ast.Call) -> None:
        expected_units = self._positional_units(node)
        if not expected_units:
            return
        for index, arg in enumerate(node.args):
            if index >= len(expected_units):
                break
            expected = expected_units[index]
            actual = self.expr_unit(arg)
            if expected and actual and expected != actual:
                self.report(arg,
                            "positional argument %d of %s expects %s but "
                            "receives %s (%s); convert via repro.sim.units "
                            "first" % (index + 1, self._callee_label(node),
                                       describe(expected), describe(actual),
                                       mismatch_kind(expected, actual)))

    def _positional_units(self, node: ast.Call):
        func = node.func
        # Simulator scheduling: first slot is seconds, whatever the receiver.
        if isinstance(func, ast.Attribute) and func.attr in \
                SCHEDULE_PARAM_UNITS:
            return (SCHEDULE_PARAM_UNITS[func.attr],)
        # Known units.* conversion helpers.
        tail = self.conversion_qual(node)
        if tail:
            return CONVERSION_PARAMS[tail]
        # Functions defined in this file: derive units from parameter names.
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute) and isinstance(
                func.value, ast.Name) and func.value.id in ("self", "cls"):
            name = func.attr
        if name and name in self._signatures:
            return tuple(unit_of_name(param)
                         for param in self._signatures[name])
        return None

    def _callee_label(self, node: ast.Call) -> str:
        return self.ctx.qualname(node.func) or "<call>"


@register
class ArithmeticUnitRule(_UnitRule):
    id = "UNIT002"
    name = "arithmetic-unit"
    severity = "error"
    description = ("Addition, subtraction, or comparison mixes values with "
                   "incompatible unit suffixes.")

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if not isinstance(node.op, (ast.Add, ast.Sub)):
            return
        left = self.expr_unit(node.left)
        right = self.expr_unit(node.right)
        if left and right and left != right:
            op = "+" if isinstance(node.op, ast.Add) else "-"
            self.report(node, "%s mixes %s with %s (%s); convert via "
                              "repro.sim.units before combining"
                        % (op, describe(left), describe(right),
                           mismatch_kind(left, right)))

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left] + list(node.comparators)
        for first, op, second in zip(operands, node.ops, operands[1:]):
            if not isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE,
                                   ast.Eq, ast.NotEq)):
                continue
            left = self.expr_unit(first)
            right = self.expr_unit(second)
            if left and right and left != right:
                self.report(node, "comparison mixes %s with %s (%s); "
                                  "convert via repro.sim.units first"
                            % (describe(left), describe(right),
                               mismatch_kind(left, right)))


@register
class AssignmentUnitRule(_UnitRule):
    id = "UNIT003"
    name = "assignment-unit"
    severity = "error"
    description = ("A value with one unit suffix is stored under a name "
                   "with an incompatible suffix.")

    def visit_Assign(self, node: ast.Assign) -> None:
        if isinstance(node.value, ast.Call):
            return  # conversion results are UNIT004's business
        value_unit = self.expr_unit(node.value)
        if not value_unit:
            return
        for target in node.targets:
            self._check_target(target, value_unit)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if not isinstance(node.op, (ast.Add, ast.Sub)):
            return
        value_unit = self.expr_unit(node.value)
        if value_unit:
            self._check_target(node.target, value_unit)

    def _check_target(self, target: ast.expr,
                      value_unit: Tuple[str, str]) -> None:
        name = None
        if isinstance(target, ast.Name):
            name = target.id
        elif isinstance(target, ast.Attribute):
            name = target.attr
        if not name:
            return
        target_unit = unit_of_name(name)
        if target_unit and target_unit != value_unit:
            self.report(target, "%r is declared %s but receives %s (%s); "
                                "rename it or convert via repro.sim.units"
                        % (name, describe(target_unit), describe(value_unit),
                           mismatch_kind(target_unit, value_unit)))


@register
class ConversionResultRule(_UnitRule):
    id = "UNIT004"
    name = "conversion-result"
    severity = "error"
    description = ("The result of a units conversion helper is stored under "
                   "a suffix contradicting its return unit (e.g. "
                   "``x_ms = units.ms(...)``, which returns seconds).")

    def visit_Assign(self, node: ast.Assign) -> None:
        if not isinstance(node.value, ast.Call):
            return
        tail = self.conversion_qual(node.value)
        if not tail:
            return
        returned = CONVERSION_RETURNS[tail]
        for target in node.targets:
            name = None
            if isinstance(target, ast.Name):
                name = target.id
            elif isinstance(target, ast.Attribute):
                name = target.attr
            if not name:
                continue
            target_unit = unit_of_name(name)
            if target_unit and target_unit != returned:
                self.report(target, "%s(...) returns %s but the result is "
                                    "stored in %r, suffixed %s; pick the "
                                    "name to match the returned unit"
                            % (tail, describe(returned), name,
                               describe(target_unit)))
