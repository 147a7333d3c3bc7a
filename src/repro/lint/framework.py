"""AST-visitor framework for ``simlint``.

The simulator's headline numbers are only citable because two invariants
hold everywhere in the tree:

* **Determinism** — for a fixed seed the packet-level simulation is
  bit-for-bit reproducible.  No wall clocks, no OS entropy, no salted
  ``hash()``, no iteration-order leaks into the event queue.
* **Unit discipline** — simulator time is seconds; milliseconds, miles
  and byte rates appear only at the analysis/reporting boundary and only
  through :mod:`repro.sim.units`.

This module provides the machinery that rule packs plug into: a rule
registry, per-file visitor dispatch over a single AST walk, suppression
comments (``# simlint: ignore[RULE]``), severity levels, and
``[tool.simlint]`` configuration loaded from ``pyproject.toml``.

A rule is a subclass of :class:`Rule` decorated with :func:`register`.
It declares ``visit_<NodeType>`` methods exactly like
:class:`ast.NodeVisitor`, plus optional :meth:`Rule.begin_file` /
:meth:`Rule.end_file` hooks for whole-file analyses (call graphs,
symbol tables).  All enabled rules share one walk per file, so adding a
rule never re-parses or re-traverses anything.
"""

from __future__ import annotations

import ast
import dataclasses
import os
import re
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Finding",
    "Rule",
    "FileContext",
    "LintConfig",
    "LintConfigError",
    "LintRunner",
    "register",
    "all_rules",
    "get_rule",
    "load_config",
    "find_pyproject",
]

SEVERITIES = ("error", "warning")

#: Rule id reserved for the framework itself (bad suppression comments).
META_RULE_ID = "META001"


class LintConfigError(Exception):
    """Raised for malformed ``[tool.simlint]`` tables or CLI selections."""


@dataclasses.dataclass
class Finding:
    """A single diagnostic produced by a rule."""

    rule: str
    severity: str
    path: str
    line: int
    col: int
    message: str
    end_line: int = 0
    suppressed: bool = False

    def __post_init__(self) -> None:
        if not self.end_line:
            self.end_line = self.line

    @property
    def blocking(self) -> bool:
        """True when this finding should fail the run."""
        return not self.suppressed

    def as_dict(self) -> Dict[str, Any]:
        """Stable JSON shape — see docs/LINTING.md before changing."""
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "end_line": self.end_line,
            "col": self.col,
            "message": self.message,
            "suppressed": self.suppressed,
        }

    def render(self) -> str:
        state = " (suppressed)" if self.suppressed else ""
        return "%s:%d:%d: %s [%s]%s %s" % (
            self.path, self.line, self.col, self.severity, self.rule,
            state, self.message)


# ---------------------------------------------------------------------------
# rule registry
# ---------------------------------------------------------------------------
_REGISTRY: Dict[str, type] = {}

_RULE_ID_RE = re.compile(r"^[A-Z]{2,5}\d{3}$")


def register(rule_cls: type) -> type:
    """Class decorator adding a rule class to the registry.

    Accepts both per-file :class:`Rule` subclasses and project-scope
    :class:`repro.lint.project.ProjectRule` subclasses; the runner
    dispatches on their ``scope`` attribute.
    """
    rule_id = getattr(rule_cls, "id", None)
    if not rule_id or not _RULE_ID_RE.match(rule_id):
        raise ValueError("rule id %r does not match PACKNNN" % (rule_id,))
    if rule_cls.severity not in SEVERITIES:
        raise ValueError("rule %s has unknown severity %r"
                         % (rule_id, rule_cls.severity))
    if getattr(rule_cls, "scope", "file") not in ("file", "project"):
        raise ValueError("rule %s has unknown scope %r"
                         % (rule_id, rule_cls.scope))
    if rule_id in _REGISTRY:
        raise ValueError("duplicate rule id %s" % rule_id)
    _REGISTRY[rule_id] = rule_cls
    return rule_cls


def all_rules() -> Dict[str, type]:
    """Return the registry (id -> rule class), importing the rule packs."""
    _load_rule_packs()
    return dict(_REGISTRY)


def get_rule(rule_id: str) -> type:
    _load_rule_packs()
    try:
        return _REGISTRY[rule_id]
    except KeyError:
        raise LintConfigError("unknown rule id %r; known rules: %s"
                              % (rule_id, ", ".join(sorted(_REGISTRY))))


def _load_rule_packs() -> None:
    # Imported lazily so framework.py itself has no circular imports.
    from repro.lint import (  # noqa: F401
        determinism,
        event_safety,
        rng_lineage,
        shard_safety,
        unit_safety,
    )


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------
@dataclasses.dataclass
class LintConfig:
    """Effective configuration for one lint run.

    ``enable`` non-empty means *only* those rules run; ``disable`` is
    subtracted afterwards.  ``exclude`` holds path fragments (POSIX
    style) — any file whose normalized path contains one is skipped.
    """

    enable: Tuple[str, ...] = ()
    disable: Tuple[str, ...] = ()
    exclude: Tuple[str, ...] = ()

    def validate(self) -> None:
        known = set(all_rules())
        for rule_id in tuple(self.enable) + tuple(self.disable):
            if rule_id not in known:
                raise LintConfigError(
                    "unknown rule id %r in simlint configuration; "
                    "known rules: %s" % (rule_id, ", ".join(sorted(known))))

    def selected_rules(self) -> List[type]:
        self.validate()
        rules = all_rules()
        ids = sorted(self.enable) if self.enable else sorted(rules)
        return [rules[i] for i in ids if i not in set(self.disable)]

    def excludes_path(self, path: str) -> bool:
        normalized = path.replace(os.sep, "/")
        return any(fragment and fragment in normalized
                   for fragment in self.exclude)


def find_pyproject(start: str) -> Optional[str]:
    """Walk up from ``start`` looking for a ``pyproject.toml``."""
    directory = os.path.abspath(start)
    if os.path.isfile(directory):
        directory = os.path.dirname(directory)
    while True:
        candidate = os.path.join(directory, "pyproject.toml")
        if os.path.isfile(candidate):
            return candidate
        parent = os.path.dirname(directory)
        if parent == directory:
            return None
        directory = parent


def load_config(pyproject_path: Optional[str]) -> LintConfig:
    """Build a :class:`LintConfig` from a ``pyproject.toml`` (or defaults)."""
    if pyproject_path is None:
        return LintConfig()
    try:
        import tomllib
    except ImportError:  # pragma: no cover - Python < 3.11
        tomllib = None
    if tomllib is not None:
        with open(pyproject_path, "rb") as handle:
            data = tomllib.load(handle)
        table = data.get("tool", {}).get("simlint", {})
    else:  # pragma: no cover - Python < 3.11
        table = _parse_simlint_table(pyproject_path)
    if not isinstance(table, dict):
        raise LintConfigError("[tool.simlint] must be a table")
    unknown_keys = set(table) - {"enable", "disable", "exclude"}
    if unknown_keys:
        raise LintConfigError("unknown [tool.simlint] keys: %s"
                              % ", ".join(sorted(unknown_keys)))
    config = LintConfig(
        enable=_string_tuple(table, "enable"),
        disable=_string_tuple(table, "disable"),
        exclude=_string_tuple(table, "exclude"),
    )
    config.validate()
    return config


def _string_tuple(table: Dict[str, Any], key: str) -> Tuple[str, ...]:
    value = table.get(key, ())
    if isinstance(value, str):
        raise LintConfigError("[tool.simlint] %s must be a list of strings"
                              % key)
    values = tuple(value)
    if not all(isinstance(item, str) for item in values):
        raise LintConfigError("[tool.simlint] %s must be a list of strings"
                              % key)
    return values


def _parse_simlint_table(pyproject_path: str) -> Dict[str, Any]:
    """Minimal fallback TOML reader for ``[tool.simlint]`` (py<3.11)."""
    table: Dict[str, Any] = {}
    in_table = False
    with open(pyproject_path, "r", encoding="utf-8") as handle:
        for raw in handle:
            line = raw.strip()
            if line.startswith("["):
                in_table = line == "[tool.simlint]"
                continue
            if not in_table or "=" not in line or line.startswith("#"):
                continue
            key, _, rest = line.partition("=")
            items = re.findall(r'"([^"]*)"', rest)
            table[key.strip()] = items
    return table


# ---------------------------------------------------------------------------
# suppression comments
# ---------------------------------------------------------------------------
_SUPPRESS_RE = re.compile(
    r"#\s*simlint:\s*(ignore-file|ignore)\s*(?:\[\s*([A-Za-z0-9_,\s]*?)\s*\])?")


class _Suppressions:
    """Parsed suppression state for one file.

    ``line_rules`` maps line number -> set of rule ids (empty set means
    "all rules").  ``file_rules`` is the same for file-level pragmas.
    """

    def __init__(self) -> None:
        self.line_rules: Dict[int, Optional[set]] = {}
        self.file_all = False
        self.file_rules: set = set()
        self.bad_comments: List[Tuple[int, str]] = []

    @classmethod
    def parse(cls, source: str, known_rules: Iterable[str]
              ) -> "_Suppressions":
        known = set(known_rules)
        state = cls()
        for lineno, text in _comments(source):
            if "simlint" not in text:
                continue
            for match in _SUPPRESS_RE.finditer(text):
                kind, raw_ids = match.group(1), match.group(2)
                ids = set()
                if raw_ids:
                    for rule_id in raw_ids.split(","):
                        rule_id = rule_id.strip()
                        if not rule_id:
                            continue
                        if rule_id not in known:
                            state.bad_comments.append((lineno, rule_id))
                            continue
                        ids.add(rule_id)
                if kind == "ignore-file":
                    if raw_ids is None:
                        state.file_all = True
                    state.file_rules |= ids
                elif raw_ids is None:
                    state.line_rules[lineno] = None  # all rules
                elif state.line_rules.get(lineno, set()) is not None:
                    state.line_rules.setdefault(lineno, set()).update(ids)
        return state

    def covers(self, rule_id: str, line: int) -> bool:
        if self.file_all or rule_id in self.file_rules:
            return True
        if line in self.line_rules:
            rules = self.line_rules[line]
            return rules is None or rule_id in rules
        return False


def _comments(source: str) -> List[Tuple[int, str]]:
    """(lineno, text) for every comment token — docstrings mentioning the
    suppression syntax must not act as suppressions."""
    import io
    import tokenize
    comments: List[Tuple[int, str]] = []
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.COMMENT:
                comments.append((token.start[0], token.string))
    except (tokenize.TokenError, IndentationError):  # pragma: no cover
        # Fall back to a raw line scan on partially tokenizable input.
        return [(i, line) for i, line in enumerate(source.splitlines(), 1)
                if "#" in line]
    return comments


# ---------------------------------------------------------------------------
# per-file context
# ---------------------------------------------------------------------------
class FileContext:
    """Everything rules may want to know about the file being linted."""

    def __init__(self, path: str, source: str, tree: ast.Module):
        self.path = path
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree
        self.imports: Dict[str, str] = {}
        self._findings: List[Finding] = []
        self._collect_imports(tree)

    # -- imports / name resolution ------------------------------------
    def _collect_imports(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".", 1)[0]
                    target = alias.name if alias.asname else local
                    self.imports[local] = target
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.imports[local] = node.module + "." + alias.name

    def qualname(self, node: ast.AST) -> Optional[str]:
        """Resolve a Name/Attribute chain to a dotted name.

        Import aliases are expanded, so ``from datetime import datetime``
        followed by ``datetime.now()`` resolves to
        ``datetime.datetime.now``.
        """
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        base = self.imports.get(node.id, node.id)
        parts.append(base)
        return ".".join(reversed(parts))

    # -- reporting ----------------------------------------------------
    def report(self, rule: "Rule", node: ast.AST, message: str,
               line: Optional[int] = None) -> None:
        start = line if line is not None else getattr(node, "lineno", 1)
        self._findings.append(Finding(
            rule=rule.id,
            severity=rule.severity,
            path=self.path,
            line=start,
            col=getattr(node, "col_offset", 0),
            message=message,
            end_line=max(start, getattr(node, "end_lineno", None) or start),
        ))


# ---------------------------------------------------------------------------
# rules
# ---------------------------------------------------------------------------
class Rule:
    """Base class for simlint rules.

    Subclasses set ``id``/``name``/``severity``/``description`` and
    implement ``visit_<NodeType>`` methods.  One instance is created per
    file, so per-file state can simply live on ``self`` (initialise it
    in :meth:`begin_file`).
    """

    id = "XXX000"
    name = "unnamed"
    severity = "error"
    description = ""

    def __init__(self, ctx: FileContext):
        self.ctx = ctx

    def begin_file(self) -> None:
        """Hook called before the walk starts."""

    def end_file(self) -> None:
        """Hook called after the walk completes."""

    def report(self, node: ast.AST, message: str,
               line: Optional[int] = None) -> None:
        self.ctx.report(self, node, message, line=line)


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------
class LintRunner:
    """Runs the enabled rules over files, sources, or directory trees.

    Per-file rules run in one AST walk per file.  Project-scope rules
    (``scope == "project"``) run once per invocation, over the
    :class:`~repro.lint.project.ModuleFacts` collected from every file,
    after the per-file pass — :meth:`run_paths` does this automatically;
    callers driving :meth:`run_source` directly finish with
    :meth:`run_project`.

    ``errors`` counts conditions that must fail CI hard (exit 2): files
    that do not parse or cannot be read, and rules that crash.  Each
    also produces a ``META001`` finding, so a broken tree degrades into
    diagnostics instead of a traceback.
    """

    def __init__(self, config: Optional[LintConfig] = None):
        self.config = config or LintConfig()
        selected = self.config.selected_rules()
        self.rule_classes = [cls for cls in selected
                             if getattr(cls, "scope", "file") == "file"]
        self.project_rule_classes = [
            cls for cls in selected
            if getattr(cls, "scope", "file") == "project"]
        self.files_scanned = 0
        #: files parsed and walked this run
        self.files_analyzed = 0
        #: hard failures: unreadable/unparseable files, crashed rules
        self.errors = 0
        #: ``--stats``: accumulate per-rule wall time into rule_times
        self.collect_stats = False
        #: rule id -> seconds spent this run
        self.rule_times: Dict[str, float] = {}
        self._facts_by_path: Dict[str, Any] = {}
        self._suppressions: Dict[str, _Suppressions] = {}

    # -- discovery ----------------------------------------------------
    def iter_python_files(self, paths: Sequence[str]) -> List[str]:
        found: List[str] = []
        for path in paths:
            if not os.path.exists(path):
                # A typo'd path must not let CI pass green on 0 files.
                raise LintConfigError("path does not exist: %r" % path)
            if os.path.isfile(path):
                if not self.config.excludes_path(path):
                    found.append(path)
                continue
            for root, dirs, names in os.walk(path):
                dirs[:] = sorted(d for d in dirs
                                 if not d.startswith(".")
                                 and d != "__pycache__")
                for name in sorted(names):
                    if not name.endswith(".py"):
                        continue
                    full = os.path.join(root, name)
                    if not self.config.excludes_path(full):
                        found.append(full)
        return found

    # -- execution ----------------------------------------------------
    def run_paths(self, paths: Sequence[str]) -> List[Finding]:
        findings: List[Finding] = []
        for path in self.iter_python_files(paths):
            findings.extend(self.run_file(path))
        findings.extend(self.run_project())
        findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        return findings

    def run_file(self, path: str) -> List[Finding]:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            self.errors += 1
            return [Finding(rule=META_RULE_ID, severity="error", path=path,
                            line=1, col=0,
                            message="file could not be read: %s" % exc)]
        return self.run_source(source, path)

    def run_source(self, source: str, path: str = "<string>"
                   ) -> List[Finding]:
        self.files_scanned += 1
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            # A finding (so the file shows up in reports) *and* a hard
            # error (so CI exits 2 rather than "1 finding, fine").
            self.errors += 1
            return [Finding(rule=META_RULE_ID, severity="error", path=path,
                            line=exc.lineno or 1, col=exc.offset or 0,
                            message="file does not parse: %s" % exc.msg)]
        self.files_analyzed += 1
        ctx = FileContext(path, source, tree)
        rules = [cls(ctx) for cls in self.rule_classes]
        dispatch: Dict[str, List[Any]] = {}
        for rule in rules:
            rule.begin_file()
            for attr in dir(rule):
                if attr.startswith("visit_"):
                    node_type = attr[len("visit_"):]
                    dispatch.setdefault(node_type, []).append(
                        (rule.id, getattr(rule, attr)))
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                child._simlint_parent = parent  # type: ignore[attr-defined]
        try:
            if self.collect_stats:
                self._walk_timed(tree, dispatch)
            else:
                for node in ast.walk(tree):
                    for _rule_id, method in dispatch.get(
                            type(node).__name__, ()):
                        method(node)
            for rule in rules:
                rule.end_file()
        except Exception as exc:  # crashed rule: diagnose, keep going
            self.errors += 1
            ctx.report(_MetaRule(ctx), None,
                       "internal error while linting (results for this "
                       "file may be partial): %s: %s"
                       % (type(exc).__name__, exc), line=1)
        if self.project_rule_classes:
            try:
                from repro.lint.project import extract_module_facts
                self._facts_by_path[path] = extract_module_facts(path, tree)
            except Exception as exc:  # pragma: no cover - defensive
                self.errors += 1
                ctx.report(_MetaRule(ctx), None,
                           "internal error extracting project facts: "
                           "%s: %s" % (type(exc).__name__, exc), line=1)

        suppressions = _Suppressions.parse(source, all_rules())
        self._suppressions[path] = suppressions
        for lineno, rule_id in suppressions.bad_comments:
            ctx.report(_MetaRule(ctx), None,
                       "suppression names unknown rule %r" % rule_id,
                       line=lineno)
        findings = ctx._findings
        for finding in findings:
            # A comment anywhere on the reported statement's lines counts,
            # so multi-line calls can carry the ignore on any line.
            if any(suppressions.covers(finding.rule, lineno)
                   for lineno in range(finding.line, finding.end_line + 1)):
                finding.suppressed = True
        findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        return findings

    # -- stats ---------------------------------------------------------
    def _walk_timed(self, tree: ast.Module, dispatch) -> None:
        """The ``--stats`` variant of the dispatch walk: identical
        visit order, with per-rule wall time accumulated."""
        clock = time.perf_counter  # simlint: ignore[DET001] timing the tool itself
        times = self.rule_times
        for node in ast.walk(tree):
            for rule_id, method in dispatch.get(type(node).__name__, ()):
                start = clock()
                method(node)
                times[rule_id] = times.get(rule_id, 0.0) \
                    + clock() - start

    def _run_timed(self, key: str, fn, *args):
        if not self.collect_stats:
            return fn(*args)
        start = time.perf_counter()  # simlint: ignore[DET001] timing the tool itself
        try:
            return fn(*args)
        finally:
            self.rule_times[key] = self.rule_times.get(key, 0.0) \
                + time.perf_counter() - start  # simlint: ignore[DET001] timing the tool itself

    # -- project pass --------------------------------------------------
    def run_project(self) -> List[Finding]:
        """Run project-scope rules over every file linted so far."""
        if not self.project_rule_classes or not self._facts_by_path:
            return []
        from repro.lint.project import ProjectContext
        project = ProjectContext(list(self._facts_by_path.values()))
        findings: List[Finding] = []
        for cls in self.project_rule_classes:
            rule = cls()
            try:
                self._run_timed(cls.id, rule.check, project)
            except Exception as exc:
                self.errors += 1
                findings.append(Finding(
                    rule=META_RULE_ID, severity="error", path="<project>",
                    line=1, col=0,
                    message="internal error in project rule %s: %s: %s"
                            % (cls.id, type(exc).__name__, exc)))
                continue
            findings.extend(rule.findings)
        for finding in findings:
            suppressions = self._suppressions.get(finding.path)
            if suppressions is not None and any(
                    suppressions.covers(finding.rule, lineno)
                    for lineno in range(finding.line,
                                        finding.end_line + 1)):
                finding.suppressed = True
        findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        return findings


class _MetaRule(Rule):
    """Pseudo-rule carrying framework diagnostics (not registered)."""

    id = META_RULE_ID
    name = "framework"
    severity = "error"
    description = "simlint's own diagnostics (bad suppression comments)."


def parent_of(node: ast.AST) -> Optional[ast.AST]:
    """Parent link annotated by the runner (None at module level)."""
    return getattr(node, "_simlint_parent", None)


def ancestors(node: ast.AST) -> Iterable[ast.AST]:
    current = parent_of(node)
    while current is not None:
        yield current
        current = parent_of(current)
