"""RNG-lineage rule pack (RNG002-RNG003).

Sharded and streaming campaigns are bit-identical to their serial runs
only because every stochastic decision is drawn from a *keyed* stream:
``derive_seed(seed, "ns/...")`` and ``RandomStreams.keyed(name, key)``
give each (namespace, entity) pair its own deterministic generator, so
draw order — which differs across shard interleavings — cannot change
any value.  Two lineage bugs break the guarantee silently, and neither
changes a value a test or golden could compare:

* RNG002 — two keyed draw sites whose key-namespace format strings
  can collide: ``"cache-lab/%s"`` and ``"cache-lab/stream/%s"`` both
  match ``cache-lab/stream/x``, which silently correlates two streams
  that were meant to be independent.  Namespaces ending in a
  ``#<ordinal>`` hole collide only with matching prefixes, because
  ``#`` never appears inside a formatted hole by convention
  (``RandomStreams.keyed`` joins name and key with ``#``).
* RNG003 — a keyed draw whose ordinal counter (``self._seq``-style,
  fed into the key) is incremented by a *different* function of the
  same class: the counter's value then depends on which code path ran
  first, which is exactly the shard-variant state keying was supposed
  to remove.

Both rules stand down when the linted file set has no keyed draw sites.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Dict, List, Optional, Tuple

from repro.lint.framework import register
from repro.lint.project import (
    ArgFacts,
    CallFacts,
    ProjectContext,
    ProjectRule,
)

#: Keyed signatures with no statically-resolvable literal content;
#: skipped by the collision check (a fully-dynamic key matches
#: everything and proves nothing).
DYNAMIC = "<dynamic>"


@functools.lru_cache(maxsize=4096)
def _patterns_collide(a: str, b: str) -> bool:
    """Can two key-namespace skeletons produce the same key?

    ``*`` stands for one-or-more characters excluding ``#`` (a
    formatted hole; ``#`` is the name/key separator
    ``RandomStreams.keyed`` appends, so a hole never contains it).
    Literal characters must match exactly.
    """
    @functools.lru_cache(maxsize=None)
    def walk(i: int, j: int) -> bool:
        if i == len(a) and j == len(b):
            return True
        if i == len(a) or j == len(b):
            return False
        ca, cb = a[i], b[j]
        if ca == "*" and cb == "*":
            return walk(i + 1, j + 1) or walk(i + 1, j) \
                or walk(i, j + 1)
        if ca == "*":
            return cb != "#" and (walk(i + 1, j + 1) or walk(i, j + 1))
        if cb == "*":
            return ca != "#" and (walk(i + 1, j + 1) or walk(i + 1, j))
        return ca == cb and walk(i + 1, j + 1)

    return walk(0, 0)


@dataclasses.dataclass(frozen=True)
class KeyedSite:
    """One keyed draw: its key-namespace skeleton and line."""

    #: the key's skeleton, dynamic holes starred (``DYNAMIC`` when no
    #: literal text is visible)
    signature: str
    line: int
    #: names/attributes feeding the key's dynamic holes — the RNG003
    #: ordinal-counter check reads these
    tokens: Tuple[str, ...] = ()


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


def _keyed_site(call: CallFacts) -> Optional[KeyedSite]:
    """The keyed draw ``call`` makes, if any: ``derive_seed(seed,
    key)``, or ``.keyed(name, key)`` / ``.spawn(name)`` on a
    ``RandomStreams``-like receiver (a bare ``random.Random`` passed in
    by a caller is keyed where it was created)."""
    if (call.bare or call.attr) == "derive_seed" or (
            call.target or "").endswith(".derive_seed"):
        key = _arg(call, 1)
        return KeyedSite(_skel_text(key) or DYNAMIC, call.line,
                         _skel_tokens(key))
    if "stream" not in (call.receiver or "").lower():
        return None
    if call.attr == "keyed":
        name = _skel_text(_arg(call, 0))
        return KeyedSite(name + "#*" if name is not None else DYNAMIC,
                         call.line,
                         _skel_tokens(_arg(call, 0))
                         + _skel_tokens(_arg(call, 1)))
    if call.attr == "spawn":
        name = _skel_text(_arg(call, 0)) or "*"
        return KeyedSite("spawn/" + name, call.line,
                         _skel_tokens(_arg(call, 0)))
    return None


def _keyed_sites(project: ProjectContext) -> List[Tuple[str, KeyedSite]]:
    """(owning qualname, site) for every keyed draw in the project.

    Sites inside a module that *defines* ``derive_seed`` are the keying
    mechanism itself (``RandomStreams.keyed`` joining name and key,
    ``spawn`` prefixing its namespace) — every keyed draw in the
    project flows through them, so they are not draw sites of their
    own.
    """
    out: List[Tuple[str, KeyedSite]] = []
    for qualname in sorted(project.functions):
        facts, fn = project.functions[qualname]
        if any(other.name == "derive_seed"
               for other in facts.functions.values()):
            continue
        for call in fn.calls:
            site = _keyed_site(call)
            if site is not None:
                out.append((qualname, site))
    return out


@register
class KeyNamespaceCollisionRule(ProjectRule):
    id = "RNG002"
    name = "key-namespace-collision"
    severity = "error"
    description = ("Two derive_seed/keyed call sites can emit the same "
                   "key namespace; the streams silently correlate.")
    scope = "project"

    def check(self, project: ProjectContext) -> None:
        sites = [(qualname, site)
                 for qualname, site in _keyed_sites(project)
                 if site.signature != DYNAMIC]
        for index, (qual_a, site_a) in enumerate(sites):
            for qual_b, site_b in sites[index + 1:]:
                skel_a, skel_b = site_a.signature, site_b.signature
                mod_a = project.functions[qual_a][0].module
                mod_b = project.functions[qual_b][0].module
                if skel_a == skel_b and mod_a == mod_b:
                    # One subsystem reusing its own namespace across
                    # sites is the keyed idiom, not a collision.
                    continue
                if not _patterns_collide(skel_a, skel_b):
                    continue
                facts_b, _fn = project.functions[qual_b]
                facts_a, _fn = project.functions[qual_a]
                self.report(
                    facts_b.path, site_b.line,
                    "key namespace %r can collide with %r "
                    "(%s:%d); colliding derive_seed/keyed namespaces "
                    "silently correlate streams that must be "
                    "independent — disambiguate the format strings"
                    % (skel_b, skel_a, facts_a.path, site_a.line))


@register
class SharedOrdinalCounterRule(ProjectRule):
    id = "RNG003"
    name = "shared-ordinal-counter"
    severity = "error"
    description = ("Keyed draw's ordinal counter is incremented by a "
                   "different function; the key depends on which code "
                   "path ran first.")
    scope = "project"

    def check(self, project: ProjectContext) -> None:
        # (module, class) -> counter name -> incrementing qualnames
        incs: Dict[Tuple[str, str], Dict[str, List[str]]] = {}
        for qualname in sorted(project.functions):
            facts, fn = project.functions[qualname]
            for name, _line in fn.counter_incs:
                scope = (facts.module, fn.cls or "")
                incs.setdefault(scope, {}).setdefault(
                    name, []).append(qualname)
        for qualname, site in _keyed_sites(project):
            facts, fn = project.functions[qualname]
            scope = (facts.module, fn.cls or "")
            local = set(fn.params)
            for targets, _line in fn.assigns:
                local.update(targets)
            for token in site.tokens:
                if token in local:
                    # The counter value arrived as a parameter or was
                    # computed locally: plain data flow, not shared
                    # mutable ordinal state.
                    continue
                others = [who for who
                          in incs.get(scope, {}).get(token, [])
                          if who != qualname]
                if not others:
                    continue
                self.report(
                    facts.path, site.line,
                    "keyed draw's ordinal counter %r is incremented "
                    "by %s; the key then depends on which code path "
                    "ran first — give each draw site its own counter"
                    % (token, ", ".join(sorted(
                        _short(who) for who in others))))

    # one finding per (site, counter) pair, not per incrementer


def _short(qualname: str) -> str:
    parts = qualname.split(".")
    return ".".join(parts[-2:]) if len(parts) > 2 else qualname
