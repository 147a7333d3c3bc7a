"""Every imported name is read by the module that imports it.

The check parses each ``.py`` file under ``src``, ``tests``,
``examples`` and ``benchmarks`` and reports every name an import binds
that the module never reads anywhere: in code, in a string annotation,
or in ``__all__``.  ``from __future__`` imports are exempt, and so is a
name whose own line carries ``# noqa: F401`` (a side-effect import).
The lint fixtures under ``tests/data`` are data, not modules, and are
skipped.
"""

from __future__ import annotations

import ast
import os
import re
from typing import Iterator, List, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TREES = ("src", "tests", "examples", "benchmarks")
SKIPPED = (os.path.join(ROOT, "tests", "data"),)
NOQA = "# noqa: F401"


def _python_files() -> Iterator[str]:
    for tree in TREES:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT,
                                                                 tree)):
            if dirpath.startswith(SKIPPED):
                dirnames[:] = []
                continue
            dirnames.sort()
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    yield os.path.join(dirpath, filename)


def _bindings(tree: ast.AST) -> Iterator[Tuple[str, ast.stmt]]:
    """(bound name, import statement) for every import in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node
        elif isinstance(node, ast.ImportFrom) \
                and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node


def _annotation_names(annotation: ast.AST) -> Set[str]:
    """Names read by an annotation, string annotations included."""
    names = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                names |= _annotation_names(ast.parse(node.value,
                                                     mode="eval"))
            except SyntaxError:
                pass
        elif isinstance(node, ast.Name):
            names.add(node.id)
    return names


def _read_names(tree: ast.AST) -> Set[str]:
    """Every name the module reads, in any scope."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                         ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = node.args
            for arg in (arguments.posonlyargs + arguments.args
                        + arguments.kwonlyargs
                        + [arguments.vararg, arguments.kwarg]):
                if arg is not None and arg.annotation is not None:
                    names |= _annotation_names(arg.annotation)
            if node.returns is not None:
                names |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            names |= _annotation_names(node.annotation)
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            names |= {element.value for element in ast.walk(node.value)
                      if isinstance(element, ast.Constant)}
    return names


def _noqa(lines: List[str], name: str, statement: ast.stmt) -> bool:
    """True when the line that holds ``name`` in ``statement`` carries
    the side-effect marker."""
    word = re.compile(r"\b%s\b" % re.escape(name))
    for line in lines[statement.lineno - 1:statement.end_lineno]:
        if word.search(line.split("#", 1)[0]):
            return NOQA in line
    return False


def unused_imports(path: str) -> List[str]:
    """``path:line: name`` for each imported name ``path`` never reads."""
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    tree = ast.parse(source, path)
    lines = source.splitlines()
    read = _read_names(tree)
    return ["%s:%d: %s" % (os.path.relpath(path, ROOT), statement.lineno,
                           name)
            for name, statement in _bindings(tree)
            if name not in read and not _noqa(lines, name, statement)]


def test_no_module_imports_a_name_it_never_reads():
    unused = [line for path in _python_files()
              for line in unused_imports(path)]
    assert unused == []
