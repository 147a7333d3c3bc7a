"""simflow — interprocedural side-effect inference for simlint.

The replay cache (:mod:`repro.sim.replay`) and the analytic tier
(:mod:`repro.sim.analytic`) skip the packet-level simulation of a
session but must leave the *identical* server-side footprint — the
ground-truth logs, the obs counters, the burned ephemeral port.  Both
inject sessions through one method,
:meth:`~repro.sim.executor.SessionExecutor.materialize`, and a
per-site comparison of effect shapes is exactly one helper-function
hop away from being blind: an effect buried inside
``record_replayed_fetch`` is invisible to it.

This module closes the gap the same way :mod:`repro.lint.simtype`
closed the unit gap: a bottom-up fixpoint over the project call graph
computes, per function, the set of *effects* its transitive closure can
perform.  An effect is a plain ``(kind, signature, detail)`` tuple:

``("log", "fetch_log[]", "")``
    subscript store into a ``*_log`` attribute — ground-truth records;
``("call", "register_keywords", "")``
    call to an effect-shaped method (``record_*`` / ``register*`` /
    ``log_*`` / ``inject``) — registry and ground-truth writes;
``("port", "reserve_port", "")``
    an ephemeral-port burn — ``reserve_port()`` or a ``.allocate()``
    on a port-pool receiver, canonicalized to one signature so the
    packet path's allocation and the manager's replication compare
    equal;
``("metric", "fe.requests", "host")``
    an obs metric write (``metrics.inc`` / ``metrics.observe``); the
    detail is the declared scope (``sim`` / ``host``, the runtime
    default) and the signature is the metric-name skeleton (``*`` when
    not statically resolvable);
``("cache", "insert", "")`` / ``("cache", "evict", "")``
    content-cache admissions and evictions;
``("rng", "cache/*/admit#*", "keyed")``
    an RNG draw, tagged with its stream lineage: ``keyed`` for
    ``derive_seed`` / ``RandomStreams.keyed`` / ``.spawn`` draws (the
    signature is the key-namespace skeleton when statically
    resolvable), ``shared`` for sequential named streams
    (``.get`` / ``.uniform`` / ``.lognormal`` / ``.bernoulli``).

The per-function *summary* is a frozen set of effects; :func:`join` is
set union, which makes the summary lattice a trivially associative,
commutative, idempotent join-semilattice (property-tested in
``tests/test_lint_effects.py``).  The fixpoint propagates summaries
bottom-up over an edge map richer than the plain call graph: scheduled
callbacks and bare ``self.method`` *references* (a timeline entry
passing ``self._server_effects`` uncalled) also contribute edges, so
deferred replication work is part of a manager's closure.

Rule packs consuming the summaries: :mod:`repro.lint.effects_pack`
(EFF001–EFF003 effect parity) and :mod:`repro.lint.rng_lineage`
(RNG001–RNG003 draw lineage).  Everything
here is pure computation over cached facts — no ASTs are re-walked.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.lint.project import (
    ArgFacts,
    CallFacts,
    FunctionFacts,
    ModuleFacts,
    ProjectContext,
)

__all__ = [
    "Effect",
    "EffectSite",
    "EffectAnalysis",
    "PARITY_KINDS",
    "SESSION_SEGMENTS",
    "is_session_module",
    "join",
    "replication_roots",
    "shared_effects",
]

#: An effect: (kind, signature, detail) — see the module docstring.
Effect = Tuple[str, str, str]

#: Path segments that mark a module as packet-session-path code.
SESSION_SEGMENTS = ("tcp", "services", "measure")

#: Effect kinds compared by the fast-path parity rules (metric scopes
#: get their own rule, cache/rng effects their own packs).
PARITY_KINDS = ("log", "call", "port")

#: Method-name shapes treated as session side effects.
EFFECT_PREFIXES = ("record_", "register", "log_")
EFFECT_METHODS = ("inject",)

#: Shared-sequential draw methods on a ``RandomStreams``-like receiver.
SHARED_DRAWS = ("get", "uniform", "lognormal", "bernoulli",
                "expovariate", "choice")

#: The fast-path replication root: ``(class, method)``.
ROOT = ("SessionExecutor", "materialize")


@dataclasses.dataclass(frozen=True)
class EffectSite:
    """One effect occurrence: the effect plus where it happens."""

    effect: Effect
    line: int
    #: names/attributes feeding the key's dynamic holes (rng only) —
    #: the RNG003 ordinal-counter check reads these
    tokens: Tuple[str, ...] = ()


def join(*summaries: Iterable[Effect]) -> FrozenSet[Effect]:
    """Join of effect summaries: plain set union.

    The lattice laws (associativity, commutativity, idempotence) are
    what make the bottom-up fixpoint order-independent; they are
    property-tested rather than assumed.
    """
    merged: Set[Effect] = set()
    for summary in summaries:
        merged.update(summary)
    return frozenset(merged)


def _path_parts(facts: ModuleFacts) -> List[str]:
    return str(facts.path).replace("\\", "/").split("/")


def is_session_module(facts: ModuleFacts) -> bool:
    parts = _path_parts(facts)
    return any(segment in parts for segment in SESSION_SEGMENTS)


def replication_roots(project: ProjectContext) -> List[str]:
    """Qualnames of the fast-path replication entry points.

    A root is a ``materialize`` method of a ``SessionExecutor`` class —
    :meth:`repro.sim.executor.SessionExecutor.materialize` on the real
    tree, the one method through which the replay cache and the
    analytic tier inject sessions.  Everything a root can reach (its
    effect closure) is what the fast paths replicate.
    """
    return [full for full, (_facts, fn) in sorted(project.functions.items())
            if (fn.cls, fn.name) == ROOT]


# ---------------------------------------------------------------------------
# local effect extraction
# ---------------------------------------------------------------------------
def _arg(call: CallFacts, slot) -> Optional[ArgFacts]:
    for arg in call.args:
        if arg.slot == slot:
            return arg
    return None


def _skel_text(arg: Optional[ArgFacts]) -> Optional[str]:
    if arg is None or arg.fstr is None:
        return None
    return arg.fstr[0]


def _skel_tokens(arg: Optional[ArgFacts]) -> Tuple[str, ...]:
    if arg is None:
        return ()
    tokens = list(arg.fstr[1]) if arg.fstr is not None else []
    for name in arg.names:
        if name not in tokens:
            tokens.append(name)
    return tuple(tokens)


def _is_derive_seed(call: CallFacts) -> bool:
    if (call.bare or call.attr) == "derive_seed":
        return True
    return bool(call.target) and call.target.endswith(".derive_seed")


def _rng_site(call: CallFacts) -> Optional[EffectSite]:
    if _is_derive_seed(call):
        key = _arg(call, 1)
        signature = _skel_text(key) or "<dynamic>"
        return EffectSite(("rng", signature, "keyed"), call.line,
                          _skel_tokens(key))
    # Only RandomStreams-like receivers: a bare ``random.Random``
    # passed in by a caller (conventionally named ``rng``) is already
    # keyed-seeded at its creation site, which is where lineage is
    # decided and checked.
    receiver = (call.receiver or "").lower()
    if "stream" not in receiver:
        return None
    if call.attr == "keyed":
        name = _skel_text(_arg(call, 0))
        signature = (name + "#*") if name is not None else "<dynamic>"
        tokens = _skel_tokens(_arg(call, 0)) + _skel_tokens(_arg(call, 1))
        return EffectSite(("rng", signature, "keyed"), call.line, tokens)
    if call.attr == "spawn":
        name = _skel_text(_arg(call, 0)) or "*"
        return EffectSite(("rng", "spawn/" + name, "keyed"), call.line,
                          _skel_tokens(_arg(call, 0)))
    if call.attr in SHARED_DRAWS:
        signature = _skel_text(_arg(call, 0)) or "<dynamic>"
        return EffectSite(("rng", signature, "shared"), call.line)
    return None


def _metric_scope(call: CallFacts) -> str:
    scope = _arg(call, "scope")
    if scope is None:
        return "host"  # the runtime default (obs/metrics.py)
    if "SCOPE_SIM" in scope.names:
        return "sim"
    if "SCOPE_HOST" in scope.names:
        return "host"
    text = _skel_text(scope)
    if text in ("sim", "host"):
        return text
    return "?"  # dynamic scope: not comparable


def _cache_receiver(call: CallFacts, fn: FunctionFacts) -> bool:
    receiver = (call.receiver or "").lower()
    if "cache" in receiver or "tier" in receiver:
        return True
    return (call.receiver == "self" and fn.cls is not None
            and ("Cache" in fn.cls or "Tier" in fn.cls))


def _call_site(call: CallFacts, fn: FunctionFacts) -> Optional[EffectSite]:
    """Classify one call site into an effect, or None."""
    rng = _rng_site(call)
    if rng is not None:
        return rng
    attr = call.attr
    if attr is None:
        return None
    if attr == "reserve_port" or (
            attr == "allocate" and "port" in (call.receiver or "").lower()):
        return EffectSite(("port", "reserve_port", ""), call.line)
    if attr in ("inc", "observe") and call.receiver == "metrics":
        name = _skel_text(_arg(call, 0))
        if name is None or name.replace("*", "") == "":
            name = "*"
        return EffectSite(("metric", name, _metric_scope(call)), call.line)
    if _cache_receiver(call, fn):
        if attr == "insert":
            return EffectSite(("cache", "insert", ""), call.line)
        if attr in ("evict", "evict_until", "_evict_until"):
            return EffectSite(("cache", "evict", ""), call.line)
    if attr in EFFECT_METHODS or attr.startswith(EFFECT_PREFIXES):
        return EffectSite(("call", attr, ""), call.line)
    return None


def local_sites(fn: FunctionFacts) -> List[EffectSite]:
    """Every effect this function performs *directly* (no closure)."""
    sites: List[EffectSite] = []
    for attr, line in fn.attr_subscript_writes:
        if attr.endswith("_log"):
            sites.append(EffectSite(("log", attr + "[]", ""), line))
    for call in fn.calls:
        site = _call_site(call, fn)
        if site is not None:
            sites.append(site)
    return sites


# ---------------------------------------------------------------------------
# the analysis
# ---------------------------------------------------------------------------
class EffectAnalysis:
    """Per-function effect summaries over one :class:`ProjectContext`.

    ``sites[qualname]`` holds the function's *local* effect sites;
    ``summaries[qualname]`` the transitive closure (local effects
    joined with every reachable callee's summary).  ``edges`` is the
    enriched call graph the closure runs on: resolved calls, scheduled
    callbacks, and bare ``self.method`` references.
    """

    def __init__(self, project: ProjectContext):
        self.project = project
        self.sites: Dict[str, List[EffectSite]] = {}
        for full in sorted(project.functions):
            _facts, fn = project.functions[full]
            found = local_sites(fn)
            if found:
                self.sites[full] = found
        self.edges = self._build_edges()
        self.summaries = self._fixpoint()

    # -- edge map -------------------------------------------------------
    def _build_edges(self) -> Dict[str, Set[str]]:
        project = self.project
        edges: Dict[str, Set[str]] = {
            caller: set(callees)
            for caller, callees in project.call_edges().items()}
        for full, (facts, fn) in project.functions.items():
            out = edges.setdefault(full, set())
            if fn.cls is not None:
                for ref in fn.self_refs:
                    candidate = "%s.%s.%s" % (facts.module, fn.cls, ref)
                    if candidate in project.functions:
                        out.add(candidate)
            for call in fn.calls:
                if call.callback:
                    out.update(project.resolve_callback(facts,
                                                        call.callback))
        return edges

    # -- fixpoint -------------------------------------------------------
    def _fixpoint(self) -> Dict[str, FrozenSet[Effect]]:
        locals_: Dict[str, FrozenSet[Effect]] = {
            full: frozenset(site.effect for site in sites)
            for full, sites in self.sites.items()}
        callers: Dict[str, Set[str]] = {}
        for caller, callees in self.edges.items():
            for callee in callees:
                callers.setdefault(callee, set()).add(caller)
        empty: FrozenSet[Effect] = frozenset()
        summaries: Dict[str, FrozenSet[Effect]] = {
            full: locals_.get(full, empty)
            for full in self.project.functions}
        work = sorted(summaries)
        queued = set(work)
        while work:
            current = work.pop()
            queued.discard(current)
            merged = join(locals_.get(current, empty),
                          *(summaries.get(callee, empty)
                            for callee in self.edges.get(current, ())))
            if merged != summaries[current]:
                summaries[current] = merged
                for caller in callers.get(current, ()):
                    if caller in summaries and caller not in queued:
                        queued.add(caller)
                        work.append(caller)
        return summaries

    # -- queries --------------------------------------------------------
    def closure(self, qualname: str) -> FrozenSet[Effect]:
        return self.summaries.get(qualname, frozenset())

    def reachable_from(self, roots: Iterable[str]
                       ) -> Dict[str, Optional[str]]:
        """BFS closure over the *enriched* edge map, witness-parented
        exactly like :meth:`ProjectContext.reachable_from`."""
        parents: Dict[str, Optional[str]] = {}
        frontier: List[str] = []
        for root in roots:
            if root in self.project.functions and root not in parents:
                parents[root] = None
                frontier.append(root)
        while frontier:
            current = frontier.pop(0)
            for callee in sorted(self.edges.get(current, ())):
                if callee not in parents:
                    parents[callee] = current
                    frontier.append(callee)
        return parents


def shared_effects(project: ProjectContext) -> EffectAnalysis:
    """The one :class:`EffectAnalysis` shared by every consuming rule.

    Memoized on the project context, so the EFF and RNG packs —
    and the ``--stats`` ``simflow-engine`` row — all account the same
    single fixpoint run.
    """
    analysis = getattr(project, "_simflow_effects", None)
    if analysis is None:
        analysis = EffectAnalysis(project)
        project._simflow_effects = analysis  # type: ignore[attr-defined]
    return analysis
