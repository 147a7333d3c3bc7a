"""Whole-project analysis for simlint: facts, import graph, call graph.

The per-file rule packs (:mod:`repro.lint.determinism`, ...) see one AST
at a time, which is exactly the wrong granularity for the invariants the
sharded/replayed runtime added: a nondeterministic value can flow
through two helper modules before it reaches ``schedule()``, and shard
code can mutate module state defined three imports away.  This module
gives project-scope rules the substrate they need:

* :class:`ModuleFacts` / :class:`FunctionFacts` / :class:`CallFacts` —
  a compact, JSON-serializable summary of one module, extracted in a
  single AST pass.  Facts (not ASTs) are what the incremental cache
  stores, so unchanged modules are never re-parsed on repeat runs.
* :class:`ProjectContext` — all modules of one lint invocation: dotted
  module naming, cross-module function resolution that follows import
  aliases and re-export chains, a call graph with the same-module
  bare-name fallback the old single-file EVT001 used (cross-module
  edges only ever come from *resolved* imports, so project-wide noise
  stays bounded), and reachability helpers with witness paths.
* :class:`ProjectRule` — the base class project-scope rules register
  with; they run once per lint invocation after the per-file walk.

Facts extraction is deliberately syntactic: no imports are executed and
no module code runs, so linting a broken tree can never crash the tool
(parse failures become ``META001`` findings upstream).
"""

from __future__ import annotations

import ast
import dataclasses
import os
import re
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

__all__ = [
    "ArgFacts",
    "CallFacts",
    "FunctionFacts",
    "ModuleFacts",
    "ProjectContext",
    "ProjectRule",
    "extract_module_facts",
    "module_name_for_path",
    "parse_unit_annotations",
]

#: Bump when the facts shape changes — part of the incremental-cache key.
#: v2: unit-expression summaries (``unit_assigns``/``unit_returns``/
#: ``unit_exprs``/``ArgFacts.expr``) and ``# simlint: unit[...]``
#: annotations, feeding :mod:`repro.lint.simtype`.
#: v3: string skeletons (``ArgFacts.fstr``), self-attribute references
#: (``FunctionFacts.self_refs``) and counter increments
#: (``FunctionFacts.counter_incs``), feeding
#: :mod:`repro.lint.effectflow` and :mod:`repro.lint.rng_lineage`.
#: v4: module-level string-collection constants dropped (their only
#: consumer, the generated replicated-effects allowlist, is gone).
FACTS_VERSION = 4

SCHEDULE_ATTRS = ("schedule", "call_at")

#: Receiver names treated as "the simulator" for ``.run()`` detection.
SIM_RECEIVERS = ("sim", "simulator", "engine")

#: Methods that mutate a list/set/dict receiver in place.
MUTATING_METHODS = (
    "append", "extend", "insert", "add", "update", "setdefault",
    "pop", "popitem", "clear", "remove", "discard",
)


@dataclasses.dataclass
class ArgFacts:
    """One argument of a call: its slot plus what the expression reads."""

    slot: object  # int position or keyword name (str)
    names: List[str]
    calls: List[int]  # indexes into the owning FunctionFacts.calls
    #: unit-expression summary of the argument (see module docstring of
    #: :mod:`repro.lint.simtype` for the encoding)
    expr: list = dataclasses.field(default_factory=lambda: ["?"])
    #: string skeleton ``[text, tokens]`` when the argument is (partly)
    #: a statically visible string: ``"cache/%s/admit#%d" % (name, n)``
    #: becomes ``["cache/*/admit#*", ["name", "n"]]`` — every dynamic
    #: hole is ``*`` and ``tokens`` lists the names/attrs feeding the
    #: holes.  ``None`` when the argument has no literal content at all
    #: (a bare name, a call result), so fully-dynamic keys never
    #: masquerade as resolvable namespaces.
    fstr: Optional[list] = None

    def to_json(self) -> list:
        data = [self.slot, self.names, self.calls, self.expr]
        if self.fstr is not None:
            data.append(self.fstr)
        return data

    @classmethod
    def from_json(cls, data: list) -> "ArgFacts":
        return cls(slot=data[0], names=list(data[1]), calls=list(data[2]),
                   expr=list(data[3]),
                   fstr=list(data[4]) if len(data) > 4 else None)


@dataclasses.dataclass
class CallFacts:
    """One call site, resolved as far as imports allow."""

    target: Optional[str]  # alias-expanded dotted name ("time.time")
    bare: Optional[str]    # function name for plain-name calls
    attr: Optional[str]    # final attribute for method calls
    receiver: Optional[str]  # "self", a bare name, or a receiver attr
    line: int
    col: int
    end_line: int
    args: List[ArgFacts]
    callback: Optional[str] = None  # scheduled callback name, if any
    lambda_runs: List[Tuple[int, int]] = dataclasses.field(
        default_factory=list)  # sim-run sites inside a lambda callback
    is_sim_run: bool = False
    first_arg_name: Optional[str] = None

    def to_json(self) -> dict:
        return {
            "t": self.target, "b": self.bare, "a": self.attr,
            "r": self.receiver, "l": self.line, "c": self.col,
            "e": self.end_line, "args": [a.to_json() for a in self.args],
            "cb": self.callback,
            "lr": [list(pair) for pair in self.lambda_runs],
            "sr": self.is_sim_run, "f": self.first_arg_name,
        }

    @classmethod
    def from_json(cls, data: dict) -> "CallFacts":
        return cls(
            target=data["t"], bare=data["b"], attr=data["a"],
            receiver=data["r"], line=data["l"], col=data["c"],
            end_line=data["e"],
            args=[ArgFacts.from_json(a) for a in data["args"]],
            callback=data["cb"],
            lambda_runs=[tuple(pair) for pair in data["lr"]],
            is_sim_run=data["sr"], first_arg_name=data["f"])


@dataclasses.dataclass
class FunctionFacts:
    """Everything project rules need to know about one function."""

    name: str
    qualname: str  # module-local: "f", "C.m", "outer.inner"
    cls: Optional[str]
    line: int
    params: List[str]
    calls: List[CallFacts] = dataclasses.field(default_factory=list)
    #: (target names, names read, call indexes, line)
    assigns: List[list] = dataclasses.field(default_factory=list)
    #: (names read, call indexes, line)
    returns: List[list] = dataclasses.field(default_factory=list)
    global_declares: List[str] = dataclasses.field(default_factory=list)
    #: (name, line) — assignment to a `global`-declared name
    global_writes: List[list] = dataclasses.field(default_factory=list)
    #: (receiver name, method, line) — in-place mutation of a bare name
    mutations: List[list] = dataclasses.field(default_factory=list)
    #: (attr, line) — `obj.attr[key] = ...` subscript-stores
    attr_subscript_writes: List[list] = dataclasses.field(
        default_factory=list)
    #: (line, accumulates) — `for` over a set-valued iterable
    set_loops: List[list] = dataclasses.field(default_factory=list)
    #: (target names, uexpr, line) — unit-expression view of each
    #: assignment, independent of ``assigns`` so the taint engine's
    #: 4-tuple unpacking stays untouched
    unit_assigns: List[list] = dataclasses.field(default_factory=list)
    #: (uexpr, line) per return statement
    unit_returns: List[list] = dataclasses.field(default_factory=list)
    #: uexprs of bare expression statements / branch conditions (unit
    #: mixes in comparisons live here)
    unit_exprs: List[list] = dataclasses.field(default_factory=list)
    #: attribute names read off ``self`` anywhere in the body —
    #: method *references* (``self._server_effects`` passed into a
    #: timeline) become call-graph edges in the effect engine
    self_refs: List[str] = dataclasses.field(default_factory=list)
    #: (name, line) for augmented-assignment targets (``self._seq += 1``
    #: records ``_seq``) — ordinal counters for the RNG-lineage rules
    counter_incs: List[list] = dataclasses.field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "name": self.name, "qual": self.qualname, "cls": self.cls,
            "line": self.line, "params": self.params,
            "calls": [c.to_json() for c in self.calls],
            "assigns": self.assigns, "returns": self.returns,
            "gdecl": self.global_declares, "gw": self.global_writes,
            "mut": self.mutations, "asw": self.attr_subscript_writes,
            "setl": self.set_loops,
            "ua": self.unit_assigns, "ur": self.unit_returns,
            "ue": self.unit_exprs,
            "sref": self.self_refs, "cinc": self.counter_incs,
        }

    @classmethod
    def from_json(cls, data: dict) -> "FunctionFacts":
        return cls(
            name=data["name"], qualname=data["qual"], cls=data["cls"],
            line=data["line"], params=list(data["params"]),
            calls=[CallFacts.from_json(c) for c in data["calls"]],
            assigns=[list(a) for a in data["assigns"]],
            returns=[list(r) for r in data["returns"]],
            global_declares=list(data["gdecl"]),
            global_writes=[list(w) for w in data["gw"]],
            mutations=[list(m) for m in data["mut"]],
            attr_subscript_writes=[list(w) for w in data["asw"]],
            set_loops=[list(s) for s in data["setl"]],
            unit_assigns=[list(a) for a in data["ua"]],
            unit_returns=[list(r) for r in data["ur"]],
            unit_exprs=[list(e) for e in data["ue"]],
            self_refs=list(data["sref"]),
            counter_incs=[list(c) for c in data["cinc"]])


@dataclasses.dataclass
class ModuleFacts:
    """Per-module facts: the unit the incremental cache stores."""

    module: str
    path: str
    imports: Dict[str, str] = dataclasses.field(default_factory=dict)
    functions: Dict[str, FunctionFacts] = dataclasses.field(
        default_factory=dict)
    #: module-level names bound to mutable containers -> line
    module_mutables: Dict[str, int] = dataclasses.field(
        default_factory=dict)
    #: line -> unit token from ``# simlint: unit[...]`` annotations
    unit_annotations: Dict[int, str] = dataclasses.field(
        default_factory=dict)
    #: (line, token) for annotations naming an unknown unit token
    bad_unit_annotations: List[list] = dataclasses.field(
        default_factory=list)

    def to_json(self) -> dict:
        return {
            "module": self.module, "path": self.path,
            "imports": self.imports,
            "functions": {q: f.to_json()
                          for q, f in self.functions.items()},
            "mutables": self.module_mutables,
            "units": {str(line): token
                      for line, token in self.unit_annotations.items()},
            "bad_units": self.bad_unit_annotations,
        }

    @classmethod
    def from_json(cls, data: dict) -> "ModuleFacts":
        return cls(
            module=data["module"], path=data["path"],
            imports=dict(data["imports"]),
            functions={q: FunctionFacts.from_json(f)
                       for q, f in data["functions"].items()},
            module_mutables=dict(data["mutables"]),
            unit_annotations={int(line): token
                              for line, token in data["units"].items()},
            bad_unit_annotations=[list(b) for b in data["bad_units"]])


# ---------------------------------------------------------------------------
# module naming
# ---------------------------------------------------------------------------
def module_name_for_path(path: str) -> str:
    """Dotted module name for a file, from its package ancestry.

    Walks up while ``__init__.py`` exists, so ``src/repro/tcp/host.py``
    becomes ``repro.tcp.host`` regardless of the lint invocation's CWD.
    Files outside any package (fixture directories) get their bare stem,
    which keeps sibling imports (``from helpers import drain``)
    resolvable inside fixture projects.
    """
    full = os.path.abspath(path)
    directory, filename = os.path.split(full)
    stem = os.path.splitext(filename)[0]
    parts = [] if stem == "__init__" else [stem]
    while os.path.isfile(os.path.join(directory, "__init__.py")):
        directory, pkg = os.path.split(directory)
        parts.append(pkg)
    if not parts:  # a lone __init__.py outside any package
        parts = [os.path.basename(directory) or "module"]
    return ".".join(reversed(parts))


# ---------------------------------------------------------------------------
# unit annotations
# ---------------------------------------------------------------------------
#: Tokens are lowercase by construction (the suffix vocabulary), so an
#: uppercase placeholder in prose (``unit[TOKEN]``) is not an
#: annotation at all rather than a bad one.
_UNIT_ANNOTATION_RE = re.compile(
    r"#\s*simlint:\s*unit\[\s*([a-z0-9_]+)\s*\]")


def parse_unit_annotations(source: str
                           ) -> Tuple[Dict[int, str], List[list]]:
    """``# simlint: unit[TOKEN]`` comments, as {line: token} + bad list.

    Tokens are validated against the unit vocabulary in
    :data:`repro.lint.unit_safety.ANNOTATION_UNITS`; unknown tokens are
    returned separately so the framework can surface them as META001
    findings instead of silently ignoring a typo'd annotation.
    """
    from repro.lint.unit_safety import ANNOTATION_UNITS
    annotations: Dict[int, str] = {}
    bad: List[list] = []
    if "simlint" not in source:
        return annotations, bad
    for lineno, text in enumerate(source.splitlines(), 1):
        if "simlint" not in text:
            continue
        for match in _UNIT_ANNOTATION_RE.finditer(text):
            token = match.group(1)
            if token in ANNOTATION_UNITS:
                annotations[lineno] = token
            else:
                bad.append([lineno, token])
    return annotations, bad


# ---------------------------------------------------------------------------
# facts extraction
# ---------------------------------------------------------------------------
class _FactsExtractor:
    """One-pass extraction of :class:`ModuleFacts` from a module AST."""

    def __init__(self, module: str, path: str, tree: ast.Module):
        self.facts = ModuleFacts(module=module, path=path)
        #: id(ast.Call) -> index into the current function's call list,
        #: so unit expressions can reference the CallFacts produced by
        #: the same traversal
        self._call_ids: Dict[int, int] = {}
        self._collect_imports(tree)
        for stmt in tree.body:
            self._module_level(stmt)
        self._walk_body(tree.body, prefix="", cls=None)

    def _collect_imports(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".", 1)[0]
                    target = alias.name if alias.asname else local
                    self.facts.imports[local] = target
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.facts.imports[local] = (node.module + "."
                                                 + alias.name)

    def _module_level(self, stmt: ast.stmt) -> None:
        if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            return
        targets = (stmt.targets if isinstance(stmt, ast.Assign)
                   else [stmt.target])
        value = stmt.value
        if value is None:
            return
        names = [t.id for t in targets if isinstance(t, ast.Name)]
        if not names:
            return
        if _is_mutable_ctor(value):
            for name in names:
                self.facts.module_mutables[name] = stmt.lineno

    # -- scope walk ----------------------------------------------------
    def _walk_body(self, body: Sequence[ast.stmt], prefix: str,
                   cls: Optional[str]) -> None:
        for stmt in body:
            if isinstance(stmt, ast.ClassDef):
                self._walk_body(stmt.body, prefix=prefix, cls=stmt.name)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._function(stmt, prefix=prefix, cls=cls)
            elif isinstance(stmt, (ast.If, ast.Try, ast.With, ast.For,
                                   ast.While)):
                for inner in ast.iter_child_nodes(stmt):
                    if isinstance(inner, (ast.FunctionDef, ast.ClassDef,
                                          ast.AsyncFunctionDef)):
                        self._walk_body([inner], prefix=prefix, cls=cls)

    def _function(self, node, prefix: str, cls: Optional[str]) -> None:
        qual = prefix + node.name if not cls \
            else prefix + cls + "." + node.name
        args = node.args
        params = [a.arg for a in (args.posonlyargs + args.args
                                  + args.kwonlyargs)]
        if args.vararg:
            params.append(args.vararg.arg)
        if args.kwarg:
            params.append(args.kwarg.arg)
        fn = FunctionFacts(name=node.name, qualname=qual, cls=cls,
                           line=node.lineno, params=params)
        self.facts.functions[qual] = fn
        self._sim_locals = _collect_sim_locals(node, self.facts.imports)
        self._set_names: Set[str] = set()
        self._current = fn
        self._call_ids = {}
        for stmt in node.body:
            self._stmt(stmt)
        # Immediately-nested defs: extract as their own functions, plus
        # a pseudo call edge outer -> inner (defining implies "may call"
        # for reachability; the old single-file EVT001 attributed nested
        # calls to the outer function, so this stays a superset).
        for stmt in _immediate_defs(node):
            fn.calls.append(CallFacts(
                target=None, bare=stmt.name, attr=None, receiver=None,
                line=stmt.lineno, col=stmt.col_offset,
                end_line=stmt.lineno, args=[]))
            self._current = fn  # restored for each sibling
            self._function(stmt, prefix=qual + ".", cls=None)

    # -- statements ----------------------------------------------------
    def _stmt(self, stmt: ast.stmt) -> None:
        fn = self._current
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return  # handled by _function / ignored
        if isinstance(stmt, ast.Global):
            fn.global_declares.extend(stmt.names)
            return
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            self._assignment(stmt)
        elif isinstance(stmt, ast.Return) and stmt.value is not None:
            names, calls = self._summarize(stmt.value)
            fn.returns.append([names, calls, stmt.lineno])
            fn.unit_returns.append([self._uexpr(stmt.value), stmt.lineno])
        elif isinstance(stmt, ast.For):
            self._for_loop(stmt)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if (isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Name)):
                    fn.mutations.append([target.value.id, "del",
                                         stmt.lineno])
            return
        else:
            for value in _stmt_exprs(stmt):
                self._summarize(value)
                uexpr = self._uexpr(value)
                if uexpr != ["?"]:
                    fn.unit_exprs.append(uexpr)
        # Recurse into compound statement bodies.
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                self._stmt(child)
            elif isinstance(child, ast.excepthandler):
                for inner in child.body:
                    self._stmt(inner)
            elif isinstance(child, ast.withitem):
                self._summarize(child.context_expr)

    def _assignment(self, stmt: ast.stmt) -> None:
        fn = self._current
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        else:
            targets, value = [stmt.target], stmt.value
        target_names: List[str] = []
        for target in _flatten_targets(targets):
            if isinstance(target, ast.Name):
                target_names.append(target.id)
                if target.id in fn.global_declares:
                    fn.global_writes.append([target.id, stmt.lineno])
            elif isinstance(target, ast.Attribute):
                target_names.append(target.attr)
            elif isinstance(target, ast.Subscript):
                base = target.value
                if isinstance(base, ast.Name):
                    fn.mutations.append([base.id, "[]=", stmt.lineno])
                elif isinstance(base, ast.Attribute):
                    fn.attr_subscript_writes.append([base.attr,
                                                     stmt.lineno])
        names: List[str] = []
        calls: List[int] = []
        if value is not None:
            names, calls = self._summarize(value)
        if isinstance(stmt, ast.AugAssign):
            names = names + [n for n in target_names]
            for name in target_names:
                fn.counter_incs.append([name, stmt.lineno])
        fn.assigns.append([target_names, names, calls, stmt.lineno])
        self._unit_assignment(stmt, targets, value)
        # DET005-style set tracking for SHARD002's loop check.
        if value is not None and _is_set_expr(value, self._set_names):
            self._set_names.update(n for n in target_names)
        else:
            self._set_names.difference_update(target_names)

    def _unit_assignment(self, stmt: ast.stmt, targets,
                         value: Optional[ast.expr]) -> None:
        """Unit-expression view of one assignment (see simtype)."""
        if value is None:
            return
        fn = self._current
        unit_targets: List[str] = []
        for target in _flatten_targets(targets):
            if isinstance(target, ast.Name):
                unit_targets.append(target.id)
            elif isinstance(target, ast.Attribute):
                unit_targets.append(target.attr)
            elif isinstance(target, ast.Subscript):
                key = _subscript_key(target)
                if key is not None:
                    unit_targets.append(key)
        if not unit_targets:
            return
        uexpr = self._uexpr(value)
        if isinstance(stmt, ast.AugAssign):
            op = _BINOP_TOKENS.get(type(stmt.op))
            if op is None:
                uexpr = ["?"]
            else:
                uexpr = [op, self._uexpr(stmt.target), uexpr,
                         stmt.lineno, stmt.col_offset]
        fn.unit_assigns.append([unit_targets, uexpr, stmt.lineno])

    def _for_loop(self, stmt: ast.For) -> None:
        fn = self._current
        self._summarize(stmt.iter)
        loop_targets: List[str] = []
        for target in _flatten_targets([stmt.target]):
            if isinstance(target, ast.Name):
                # loop variable: kill any set-ness
                self._set_names.discard(target.id)
                loop_targets.append(target.id)
        if loop_targets:
            # Loop variables get unknown units (kill stale bindings).
            fn.unit_assigns.append([loop_targets, ["?"], stmt.lineno])
        if _is_set_expr(stmt.iter, self._set_names):
            accumulates = _body_accumulates(stmt)
            fn.set_loops.append([stmt.lineno, accumulates])

    # -- expressions ---------------------------------------------------
    def _summarize(self, node: ast.expr) -> Tuple[List[str], List[int]]:
        """(names read, call indexes) for an expression subtree.

        Calls encountered are appended to the current function's call
        list (post-order), so nested calls get their own CallFacts.
        """
        names: List[str] = []
        calls: List[int] = []
        self._summarize_into(node, names, calls)
        return names, calls

    def _summarize_into(self, node: ast.AST, names: List[str],
                        calls: List[int]) -> None:
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load) and node.id not in names:
                names.append(node.id)
            return
        if isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id == "self" \
                and isinstance(node.ctx, ast.Load):
            # A bare ``self.method`` reference (no call): the effect
            # engine turns these into call-graph edges, so scheduled
            # method references are not invisible to the closure.
            refs = self._current.self_refs
            if node.attr not in refs:
                refs.append(node.attr)
        if isinstance(node, ast.Call):
            index = self._call(node)
            self._call_ids[id(node)] = index
            calls.append(index)
            return
        if isinstance(node, ast.Lambda):
            return  # lambda bodies are summarized only when scheduled
        for child in ast.iter_child_nodes(node):
            self._summarize_into(child, names, calls)

    def _call(self, node: ast.Call) -> int:
        fn = self._current
        func = node.func
        target = _qualname(func, self.facts.imports)
        bare = func.id if isinstance(func, ast.Name) else None
        attr = func.attr if isinstance(func, ast.Attribute) else None
        receiver = None
        if isinstance(func, ast.Attribute):
            if isinstance(func.value, ast.Name):
                receiver = func.value.id
            elif isinstance(func.value, ast.Attribute):
                receiver = func.value.attr
        arg_facts: List[ArgFacts] = []
        first_arg_name = None
        for index, arg in enumerate(node.args):
            if isinstance(arg, ast.Starred):
                arg = arg.value
            a_names, a_calls = self._summarize(arg)
            arg_facts.append(ArgFacts(slot=index, names=a_names,
                                      calls=a_calls,
                                      expr=self._uexpr(arg),
                                      fstr=_str_skeleton(arg)))
            if index == 0 and isinstance(arg, ast.Name):
                first_arg_name = arg.id
        for keyword in node.keywords:
            a_names, a_calls = self._summarize(keyword.value)
            arg_facts.append(ArgFacts(slot=keyword.arg or "**",
                                      names=a_names, calls=a_calls,
                                      expr=self._uexpr(keyword.value),
                                      fstr=_str_skeleton(keyword.value)))
        call = CallFacts(
            target=target, bare=bare, attr=attr, receiver=receiver,
            line=node.lineno, col=node.col_offset,
            end_line=getattr(node, "end_lineno", None) or node.lineno,
            args=arg_facts, first_arg_name=first_arg_name)
        if attr in SCHEDULE_ATTRS:
            callback = _callback_expr(node)
            if isinstance(callback, ast.Name):
                call.callback = callback.id
            elif isinstance(callback, ast.Attribute):
                call.callback = callback.attr
            elif isinstance(callback, ast.Lambda):
                for child in ast.walk(callback.body):
                    if _is_sim_run(child, self._sim_locals):
                        call.lambda_runs.append(
                            (child.lineno, child.col_offset))
                self._summarize_into(callback.body, [], [])
        if _is_sim_run(node, self._sim_locals):
            call.is_sim_run = True
        fn.calls.append(call)
        # Also record in-place mutations expressed as method calls.
        if (attr in MUTATING_METHODS and isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)):
            fn.mutations.append([func.value.id, attr, node.lineno])
        return len(fn.calls) - 1

    # -- unit expressions ----------------------------------------------
    def _uexpr(self, node: ast.expr) -> list:
        """Compact, JSON-serializable unit-expression for simtype.

        Encoding (nested lists): ``["n", name]`` name read, ``["a",
        attr]`` attribute/constant-key field read, ``["c", i]`` result
        of call *i* of this function, ``["#"]`` numeric literal,
        ``["+"|"-"|"*"|"/", left, right, line, col]`` arithmetic,
        ``["cmp", [operands...], line, col]`` an order/equality
        comparison, ``["j", a, b]`` a branch join (conditional
        expression), ``["?"]`` anything the analysis cannot see
        through.
        """
        if isinstance(node, ast.Name):
            return ["n", node.id]
        if isinstance(node, ast.Attribute):
            return ["a", node.attr]
        if isinstance(node, ast.Subscript):
            key = _subscript_key(node)
            return ["a", key] if key is not None else ["?"]
        if isinstance(node, ast.Call):
            index = self._call_ids.get(id(node))
            return ["c", index] if index is not None else ["?"]
        if isinstance(node, ast.Constant):
            if isinstance(node.value, (int, float)) \
                    and not isinstance(node.value, bool):
                return ["#"]
            return ["?"]
        if isinstance(node, ast.BinOp):
            op = _BINOP_TOKENS.get(type(node.op))
            if op is None:
                return ["?"]
            return [op, self._uexpr(node.left), self._uexpr(node.right),
                    node.lineno, node.col_offset]
        if isinstance(node, ast.UnaryOp) \
                and isinstance(node.op, (ast.USub, ast.UAdd)):
            return self._uexpr(node.operand)
        if isinstance(node, ast.IfExp):
            return ["j", self._uexpr(node.body),
                    self._uexpr(node.orelse)]
        if isinstance(node, ast.Compare):
            if all(isinstance(op, _CMP_OPS) for op in node.ops):
                operands = [self._uexpr(x)
                            for x in [node.left] + node.comparators]
                return ["cmp", operands, node.lineno, node.col_offset]
            return ["?"]
        return ["?"]


#: AST operator -> uexpr token (operators outside the unit algebra,
#: e.g. ``%`` and ``**``, summarize to unknown).
_BINOP_TOKENS = {
    ast.Add: "+",
    ast.Sub: "-",
    ast.Mult: "*",
    ast.Div: "/",
    ast.FloorDiv: "/",
}

_CMP_OPS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq)


def _subscript_key(node: ast.Subscript) -> Optional[str]:
    """Constant-string subscript key (``d["rtt_ms"]`` -> ``rtt_ms``),
    so dict-field unit flows work like attribute flows."""
    index = node.slice
    if isinstance(index, ast.Constant) and isinstance(index.value, str):
        return index.value
    return None


# ---------------------------------------------------------------------------
# string skeletons
# ---------------------------------------------------------------------------
#: ``%%`` (a literal percent) or one %-conversion specifier.
_FORMAT_SPEC_RE = re.compile(r"%%|%[-+ #0]*\d*(?:\.\d+)?[srdifFeEgGxXoc]")


def _str_skeleton(node: ast.expr) -> Optional[list]:
    """``[skeleton, tokens]`` for a statically visible string expression.

    The skeleton is the expression's literal text with every dynamic
    hole (a %-specifier, an f-string field, a concatenated name)
    replaced by ``*``; ``tokens`` lists the names/attributes feeding the
    holes, in order of first appearance.  Returns ``None`` when the
    expression carries no literal string content at all — a fully
    dynamic value is not a resolvable namespace, and downstream rules
    must not compare it against anything.
    """
    text, tokens, literal = _skeleton_parts(node)
    if not literal:
        return None
    while "**" in text:
        text = text.replace("**", "*")
    return [text, tokens]


def _skeleton_parts(node: ast.expr) -> Tuple[str, List[str], bool]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.replace("%%", "%"), [], True
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod) \
            and isinstance(node.left, ast.Constant) \
            and isinstance(node.left.value, str):
        text = _FORMAT_SPEC_RE.sub(
            lambda m: "%" if m.group(0) == "%%" else "*",
            node.left.value)
        return text, _hole_tokens(node.right), True
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        left_text, left_tokens, left_lit = _skeleton_parts(node.left)
        right_text, right_tokens, right_lit = _skeleton_parts(node.right)
        return (left_text + right_text, left_tokens + right_tokens,
                left_lit or right_lit)
    if isinstance(node, ast.JoinedStr):
        text = ""
        tokens: List[str] = []
        literal = False
        for value in node.values:
            if isinstance(value, ast.Constant) \
                    and isinstance(value.value, str):
                text += value.value
                literal = literal or bool(value.value)
            elif isinstance(value, ast.FormattedValue):
                text += "*"
                tokens.extend(_hole_tokens(value.value))
            else:  # pragma: no cover - future node kinds
                text += "*"
        return text, tokens, literal
    return "*", _hole_tokens(node), False


def _hole_tokens(node: ast.expr) -> List[str]:
    """Names and attribute fields read by a dynamic skeleton hole."""
    tokens: List[str] = []
    for child in ast.walk(node):
        if isinstance(child, ast.Attribute):
            if child.attr not in tokens:
                tokens.append(child.attr)
        elif isinstance(child, ast.Name) and child.id != "self":
            if child.id not in tokens:
                tokens.append(child.id)
    return tokens


def _stmt_exprs(stmt: ast.stmt) -> Iterable[ast.expr]:
    for child in ast.iter_child_nodes(stmt):
        if isinstance(child, ast.expr):
            yield child


def _immediate_defs(node: ast.AST) -> Iterable[ast.AST]:
    """Function defs nested directly under ``node`` (not inside a
    deeper def, whose own extraction will pick them up)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield child
        elif not isinstance(child, ast.Lambda):
            for inner in _immediate_defs(child):
                yield inner


def _flatten_targets(targets) -> Iterable[ast.expr]:
    for target in targets:
        if isinstance(target, (ast.Tuple, ast.List)):
            for inner in _flatten_targets(target.elts):
                yield inner
        else:
            yield target


def _qualname(node: ast.AST, imports: Dict[str, str]) -> Optional[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(imports.get(node.id, node.id))
    return ".".join(reversed(parts))


def _is_mutable_ctor(node: ast.expr) -> bool:
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                         ast.ListComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("dict", "list", "set", "defaultdict",
                                "OrderedDict", "Counter", "deque")
    return False


def _is_set_expr(node: ast.expr, set_names: Set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    if isinstance(node, ast.Name):
        return node.id in set_names
    return False


def _body_accumulates(loop: ast.For) -> bool:
    for node in ast.walk(loop):
        if isinstance(node, ast.AugAssign):
            return True
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATING_METHODS):
            return True
    return False


def _collect_sim_locals(node: ast.AST,
                        imports: Dict[str, str]) -> Set[str]:
    locals_: Set[str] = set()
    for stmt in ast.walk(node):
        if (isinstance(stmt, ast.Assign)
                and isinstance(stmt.value, ast.Call)
                and (_qualname(stmt.value.func, imports) or ""
                     ).endswith("Simulator")):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    locals_.add(target.id)
    return locals_


def _is_sim_run(node: ast.AST, sim_locals: Set[str]) -> bool:
    if not (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("run", "run_until_idle")):
        return False
    value = node.func.value
    if isinstance(value, ast.Name):
        return value.id in SIM_RECEIVERS or value.id in sim_locals
    if isinstance(value, ast.Attribute):
        return value.attr in SIM_RECEIVERS
    return False


def _callback_expr(node: ast.Call) -> Optional[ast.expr]:
    callback: Optional[ast.expr] = None
    if len(node.args) >= 2:
        callback = node.args[1]
    for keyword in node.keywords:
        if keyword.arg == "callback":
            callback = keyword.value
    return callback


def extract_module_facts(path: str, tree: ast.Module,
                         module: Optional[str] = None,
                         source: Optional[str] = None) -> ModuleFacts:
    """Extract :class:`ModuleFacts` for one parsed module.

    ``source`` (when available) is scanned for ``# simlint: unit[...]``
    annotations; extraction itself is purely syntactic over the AST.
    """
    name = module or module_name_for_path(path)
    facts = _FactsExtractor(name, path, tree).facts
    if source is not None:
        annotations, bad = parse_unit_annotations(source)
        facts.unit_annotations = annotations
        facts.bad_unit_annotations = bad
    return facts


# ---------------------------------------------------------------------------
# project context
# ---------------------------------------------------------------------------
class ProjectContext:
    """All modules of one lint invocation, indexed for cross-module
    analysis."""

    def __init__(self, modules: Sequence[ModuleFacts]):
        self.modules: Dict[str, ModuleFacts] = {}
        for facts in modules:
            name = facts.module
            # Duplicate stems (two fixture dirs both holding `a.py`)
            # get path-disambiguated names so neither is shadowed.
            while name in self.modules \
                    and self.modules[name].path != facts.path:
                name = name + "+"
            self.modules[name] = facts
            if name != facts.module:
                facts = dataclasses.replace(facts, module=name)
                self.modules[name] = facts
        #: "module.local_qualname" -> (ModuleFacts, FunctionFacts)
        self.functions: Dict[str, Tuple[ModuleFacts, FunctionFacts]] = {}
        #: module -> bare name -> [qualnames in that module]
        self._bare: Dict[str, Dict[str, List[str]]] = {}
        #: bare name -> [qualnames project-wide], for CHA-lite edges
        self._by_name: Dict[str, List[str]] = {}
        for mod_name, facts in self.modules.items():
            bare = self._bare.setdefault(mod_name, {})
            for local_qual, fn in facts.functions.items():
                full = mod_name + "." + local_qual
                self.functions[full] = (facts, fn)
                bare.setdefault(fn.name, []).append(full)
                self._by_name.setdefault(fn.name, []).append(full)
        self._edges: Optional[Dict[str, Set[str]]] = None

    # -- resolution ----------------------------------------------------
    def resolve_function(self, dotted: Optional[str],
                         from_module: Optional[str] = None,
                         _depth: int = 0) -> Optional[str]:
        """Canonical function qualname for an alias-expanded dotted name.

        Follows re-export chains (``from repro.lint.framework import
        LintRunner`` in ``repro.lint`` makes ``repro.lint.LintRunner``
        resolve to ``repro.lint.framework.LintRunner``).
        """
        if dotted is None or _depth > 8:
            return None
        if dotted in self.functions:
            return dotted
        parts = dotted.split(".")
        if len(parts) == 1:
            # A bare name: only resolvable inside its own module.
            if from_module is not None:
                candidate = from_module + "." + dotted
                if candidate in self.functions:
                    return candidate
            return None
        for split in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:split])
            if module not in self.modules:
                continue
            rest = ".".join(parts[split:])
            candidate = module + "." + rest
            if candidate in self.functions:
                return candidate
            imports = self.modules[module].imports
            head = parts[split]
            if head in imports:
                tail = parts[split + 1:]
                chained = imports[head] + ("." + ".".join(tail)
                                           if tail else "")
                return self.resolve_function(chained, _depth=_depth + 1)
            return None
        return None

    # -- call graph ----------------------------------------------------
    #: Cap on project-wide candidates an unresolved attribute call may
    #: fan out to (CHA-lite).  Names defined in more places than this
    #: are too generic to produce useful edges.
    CHA_FANOUT = 3

    def resolve_call(self, facts: ModuleFacts, fn: FunctionFacts,
                     call: CallFacts) -> List[str]:
        """Candidate callee qualnames for one call site.

        Resolution order, in decreasing confidence: (1) import-resolved
        targets anywhere in the project (a resolvable *class* call is
        its constructor); (2) ``self.method()`` within the same class;
        (3) bare/attribute names within the *same module* — the old
        single-file heuristic; (4) an attribute call whose method name
        is defined at most :data:`CHA_FANOUT` times project-wide links
        to all of them (so ``emulator.submit(...)`` finds
        ``QueryEmulator.submit`` without type inference, while generic
        names like ``.get`` produce no edges at all).
        """
        if call.is_sim_run:
            # The engine sink itself: rules inspect these call sites
            # directly, and a bare ``.run`` must never fan out to
            # unrelated project methods named ``run``.
            return []
        resolved = self.resolve_function(call.target,
                                         from_module=facts.module)
        if resolved is None and call.target:
            resolved = self.resolve_function(call.target + ".__init__",
                                             from_module=facts.module)
        if resolved is not None:
            return [resolved]
        if call.receiver == "self" and fn.cls is not None:
            candidate = "%s.%s.%s" % (facts.module, fn.cls, call.attr)
            if candidate in self.functions:
                return [candidate]
        name = call.attr or call.bare
        if not name:
            return []
        local = self._bare.get(facts.module, {}).get(name)
        if local:
            return list(local)
        if call.attr is not None and not name.startswith("__") \
                and name not in MUTATING_METHODS:
            everywhere = self._by_name.get(name, ())
            if 0 < len(everywhere) <= self.CHA_FANOUT:
                return list(everywhere)
        return []

    def resolve_callback(self, facts: ModuleFacts,
                         name: str) -> List[str]:
        """Candidate functions a scheduled-callback *name* may refer to.

        Callbacks are stored as bare names (``tick``, ``self.on_timer``
        keeps only ``on_timer``), so resolution tries, in order: any
        same-module function of that name, an imported function, and
        finally the CHA-lite project-wide lookup.
        """
        local = self._bare.get(facts.module, {}).get(name)
        if local:
            return list(local)
        resolved = self.resolve_function(facts.imports.get(name, name),
                                         from_module=facts.module)
        if resolved is not None:
            return [resolved]
        everywhere = self._by_name.get(name, ())
        if 0 < len(everywhere) <= self.CHA_FANOUT:
            return list(everywhere)
        return []

    def call_edges(self) -> Dict[str, Set[str]]:
        """caller qualname -> callee qualnames (see
        :meth:`resolve_call`)."""
        if self._edges is not None:
            return self._edges
        edges: Dict[str, Set[str]] = {}
        for full, (facts, fn) in self.functions.items():
            out: Set[str] = set()
            for call in fn.calls:
                out.update(self.resolve_call(facts, fn, call))
            edges[full] = out
        self._edges = edges
        return edges

    def reachable_from(self, roots: Iterable[str]
                       ) -> Dict[str, Optional[str]]:
        """BFS closure over :meth:`call_edges`.

        Returns ``{qualname: predecessor}`` (roots map to ``None``), so
        rules can render a witness chain in their messages.
        """
        edges = self.call_edges()
        parents: Dict[str, Optional[str]] = {}
        frontier: List[str] = []
        for root in roots:
            if root in self.functions and root not in parents:
                parents[root] = None
                frontier.append(root)
        while frontier:
            current = frontier.pop(0)
            for callee in sorted(edges.get(current, ())):
                if callee not in parents:
                    parents[callee] = current
                    frontier.append(callee)
        return parents

    def witness_chain(self, parents: Dict[str, Optional[str]],
                      qualname: str, limit: int = 4) -> str:
        """Human-readable ``a -> b -> c`` chain from a root to
        ``qualname``."""
        chain: List[str] = []
        current: Optional[str] = qualname
        while current is not None and len(chain) < 32:
            chain.append(current)
            current = parents.get(current)
        chain.reverse()
        if len(chain) > limit:
            chain = chain[:1] + ["..."] + chain[-(limit - 1):]
        return " -> ".join(_short_name(item) for item in chain)

    # -- convenience ---------------------------------------------------
    def functions_in_module(self, predicate) -> List[str]:
        return sorted(full for full, (facts, fn) in self.functions.items()
                      if predicate(facts, fn))


def _short_name(qualname: str) -> str:
    if qualname == "...":
        return qualname
    parts = qualname.split(".")
    return ".".join(parts[-2:]) if len(parts) > 2 else qualname


# ---------------------------------------------------------------------------
# project rules
# ---------------------------------------------------------------------------
class ProjectRule:
    """Base class for project-scope simlint rules.

    Unlike :class:`repro.lint.framework.Rule`, one instance runs once
    per lint invocation, after every file's per-file walk, and sees the
    whole :class:`ProjectContext`.  Report through :meth:`report`; the
    runner applies suppression comments by the finding's file and line
    exactly as for per-file rules.
    """

    id = "XXX000"
    name = "unnamed"
    severity = "error"
    description = ""
    scope = "project"

    def __init__(self) -> None:
        self.findings: List = []

    def check(self, project: ProjectContext) -> None:
        raise NotImplementedError

    def report(self, path: str, line: int, message: str,
               col: int = 0, end_line: int = 0) -> None:
        from repro.lint.framework import Finding
        self.findings.append(Finding(
            rule=self.id, severity=self.severity, path=path, line=line,
            col=col, message=message, end_line=end_line or line))
