"""Shard-safety rule pack (SHARD001-SHARD002).

:func:`repro.parallel.pool.map_shards` runs shard workers in separate
processes and merges their results order-independently; two classes
of bugs silently break the serial-equals-sharded guarantee that
``tests/test_parallel.py`` fingerprints:

* worker code mutating module-level state — each process mutates its
  *own* copy, the parent never sees it, and any code that later reads
  the module state gets an answer that depends on how work was
  sharded (SHARD001);
* merge/absorb accumulators fed by set/dict iteration — hash order is
  arbitrary across processes, so the merged result is not a function
  of the inputs (SHARD002).

Both need the cross-module call graph: the shard entry point lives in
``parallel/``, the state it reaches lives anywhere.
"""

from __future__ import annotations

from typing import List, Set, Tuple

from repro.lint.framework import register
from repro.lint.project import (
    FunctionFacts,
    ProjectContext,
    ProjectRule,
)

#: Callables that dispatch a worker function across shard processes;
#: the call's first argument is the shard entry point.
SHARD_DISPATCHERS = ("map_shards",)


def shard_entry_points(project: ProjectContext
                       ) -> List[Tuple[str, str, int]]:
    """(entry qualname, dispatch path, dispatch line) per dispatch."""
    entries: List[Tuple[str, str, int]] = []
    for fq in sorted(project.functions):
        facts, fn = project.functions[fq]
        for call in fn.calls:
            name = call.attr or call.bare
            if name not in SHARD_DISPATCHERS:
                continue
            worker = call.first_arg_name
            if not worker:
                continue
            local = facts.module + "." + worker
            resolved = local if local in project.functions else \
                project.resolve_function(
                    facts.imports.get(worker, worker),
                    from_module=facts.module)
            if resolved is not None:
                entries.append((resolved, facts.path, call.line))
    return entries


def _locals_of(fn: FunctionFacts) -> Set[str]:
    names = set(fn.params)
    for targets, _line in fn.assigns:
        names.update(targets)
    return names


@register
class ShardSharedStateRule(ProjectRule):
    id = "SHARD001"
    name = "shard-shared-state"
    severity = "error"
    description = ("Module-level state is written in code reachable "
                   "from a shard entry point; each worker process "
                   "mutates its own copy, so results depend on the "
                   "sharding.")
    scope = "project"

    def check(self, project: ProjectContext) -> None:
        entries = shard_entry_points(project)
        if not entries:
            return
        parents = project.reachable_from(e[0] for e in entries)
        seen: Set[Tuple[str, int, str]] = set()
        for fq in sorted(parents):
            facts, fn = project.functions[fq]
            chain = project.witness_chain(parents, fq)
            for name, line in fn.global_writes:
                key = (facts.path, line, name)
                if key not in seen:
                    seen.add(key)
                    self.report(
                        facts.path, line,
                        "module-level name %r is written here, and this "
                        "code is reachable from shard entry point(s) "
                        "(%s); worker processes each write their own "
                        "copy" % (name, chain))
            module_state = set(project.modules[facts.module]
                               .module_mutables)
            local_names = _locals_of(fn)
            for receiver, method, line in fn.mutations:
                if receiver not in module_state \
                        or receiver in local_names:
                    continue
                key = (facts.path, line, receiver)
                if key not in seen:
                    seen.add(key)
                    self.report(
                        facts.path, line,
                        "module-level mutable %r is mutated via .%s() "
                        "in code reachable from shard entry point(s) "
                        "(%s); worker processes each mutate their own "
                        "copy" % (receiver, method, chain))


@register
class ShardSetMergeRule(ProjectRule):
    id = "SHARD002"
    name = "shard-set-merge"
    severity = "error"
    description = ("A merge/absorb accumulator is fed by iterating a "
                   "set; set order is arbitrary, so the merged result "
                   "is not a pure function of the shard outputs.")
    scope = "project"

    def check(self, project: ProjectContext) -> None:
        entries = shard_entry_points(project)
        parents = project.reachable_from(e[0] for e in entries) \
            if entries else {}
        for fq in sorted(project.functions):
            facts, fn = project.functions[fq]
            merge_like = ("merge" in fn.name or "absorb" in fn.name)
            if fq not in parents and not merge_like:
                continue
            for line, accumulates in fn.set_loops:
                if not accumulates:
                    continue
                self.report(
                    facts.path, line,
                    "iteration over a set feeds an accumulator in %s "
                    "code; set order differs across processes — sort "
                    "the elements first"
                    % ("merge" if merge_like else "shard-reachable"))
