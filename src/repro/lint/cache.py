"""On-disk incremental cache for simlint.

Repeated CI runs mostly re-lint unchanged files.  The cache stores, per
file, everything a run produces for it — findings, the
:class:`~repro.lint.project.ModuleFacts` the project pass needs, and
the parsed suppression state — keyed by the SHA-256 of the file
*content*, so renames and ``touch`` are free and any edit invalidates
exactly that file.  Project-scope rules always re-run (they are
cross-file by nature), but on a warm cache they run over restored
facts without a single re-parse.

The whole cache is invalidated when anything that shapes *analysis*
changes: the facts schema, the rule-pack version, the ``exclude``
configuration (it changes what the project pass sees), and the lint
package's own source (so a rule edit can never replay findings
computed by older logic, even without a manual ``RULEPACK_VERSION``
bump).  The store's *signature* covers them all, and a signature
mismatch simply starts an empty cache.  A corrupt or unreadable cache
file is likewise treated as empty — the cache can slow a run down,
never break it.

The *rule selection* (``enable``/``disable`` edits in
``[tool.simlint]``, ``--select``/``--disable``) is deliberately **not**
part of the store signature: per-file facts and the inferred-signature
table do not depend on which rules consume them, so toggling a pack
must not nuke them.  Instead each per-file entry records the rule ids
active when it was written; a file replays from cache when the current
selection is a subset of the recorded one (cached findings of now-
disabled rules are filtered out on restore), and re-analyzes only when
the selection grew a rule the entry never ran.

Besides per-file entries the store carries one store-wide section: the
inferred unit *signature table* from :mod:`repro.lint.simtype`, keyed
by a digest of every seen file's content hash.  On a warm run whose
file set is byte-identical, the table seeds the inference fixpoints —
the engine starts at the previous solution and converges in one
verification round, and the runner reports it via
``signatures_from_cache``.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, List, Optional

from repro.lint.framework import Finding, _Suppressions
from repro.lint.project import FACTS_VERSION, ModuleFacts

__all__ = ["CacheStore", "RULEPACK_VERSION"]

#: Bump when any rule's behavior changes without its id changing, so
#: warm caches cannot serve findings computed by older logic.
#: v3: effect-parity (EFF/RPLY) and RNG-lineage packs on simflow.
#: v4: RPLY001/RPLY002/EFF004 retired; parity rooted at
#: SessionExecutor.materialize.
RULEPACK_VERSION = 4

#: Shape of the cache file itself.
#: v2: store-wide inferred-signature section ("signatures").
#: v3: per-entry "rules" (active rule ids at record time); the rule
#: selection left the store signature.
_CACHE_SCHEMA = 3


def _content_key(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


_source_digest_cache: Optional[str] = None


def _lint_source_digest() -> str:
    """Digest of the lint package's own ``.py`` sources.

    Any edit to a rule or the engine changes the digest and therefore
    the store signature — warm caches can never serve findings a
    different implementation computed.
    """
    global _source_digest_cache
    if _source_digest_cache is None:
        digest = hashlib.sha256()
        package_dir = os.path.dirname(os.path.abspath(__file__))
        for name in sorted(os.listdir(package_dir)):
            if not name.endswith(".py"):
                continue
            digest.update(name.encode("utf-8"))
            try:
                with open(os.path.join(package_dir, name), "rb") as fh:
                    digest.update(fh.read())
            except OSError:  # pragma: no cover - unreadable install
                pass
        _source_digest_cache = digest.hexdigest()[:16]
    return _source_digest_cache


class CacheStore:
    """One cache file, loaded at open and written back at save."""

    def __init__(self, path: str, signature: str):
        self.path = path
        self.signature = signature
        self.entries: Dict[str, Dict[str, Any]] = {}
        self._seen: List[str] = []
        #: {"key": files digest, "table": simtype signature table}
        self._signatures: Optional[Dict[str, Any]] = None

    @classmethod
    def open(cls, path: str, runner) -> "CacheStore":
        signature = cls.signature_for(runner)
        store = cls(path, signature)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
            if (data.get("schema") == _CACHE_SCHEMA
                    and data.get("signature") == signature):
                store.entries = data.get("files", {})
                store._signatures = data.get("signatures")
        except (OSError, ValueError):
            pass  # absent or corrupt: start cold
        return store

    @staticmethod
    def signature_for(runner) -> str:
        # Deliberately selection-free: see the module docstring.  Only
        # ``exclude`` stays — it shapes the file set the project pass
        # (and therefore the signature table) was computed over.
        config_fp = hashlib.sha256(json.dumps(
            sorted(runner.config.exclude),
        ).encode("utf-8")).hexdigest()[:16]
        return "v%d/facts%d/src:%s/excl:%s" % (
            RULEPACK_VERSION, FACTS_VERSION, _lint_source_digest(),
            config_fp)

    @staticmethod
    def _active_rule_ids(runner) -> List[str]:
        return sorted(cls.id for cls in (runner.rule_classes
                                         + runner.project_rule_classes))

    # -- per-file protocol ---------------------------------------------
    def restore(self, runner, path: str,
                source: str) -> Optional[List[Finding]]:
        """Replay a cached result for ``path``, or None on a miss.

        A hit additionally requires every currently-active rule to
        have been active when the entry was recorded; findings of
        rules since disabled are filtered out (``META001`` diagnostics
        always survive — they describe the file, not a rule).
        """
        entry = self.entries.get(path)
        if entry is None or entry.get("key") != _content_key(source):
            return None
        active = self._active_rule_ids(runner)
        recorded = set(entry.get("rules", ()))
        if any(rule_id not in recorded for rule_id in active):
            return None  # selection grew: this rule never ran here
        keep = set(active)
        keep.add("META001")
        self._seen.append(path)
        runner.files_scanned += 1
        runner.files_from_cache += 1
        if entry.get("facts") is not None and runner.project_rule_classes:
            runner._facts_by_path[path] = ModuleFacts.from_json(
                entry["facts"])
        runner._suppressions[path] = _Suppressions.from_json(
            entry["suppressions"])
        return [Finding(rule=f["rule"], severity=f["severity"],
                        path=f["path"], line=f["line"], col=f["col"],
                        message=f["message"], end_line=f["end_line"],
                        suppressed=f["suppressed"])
                for f in entry["findings"] if f["rule"] in keep]

    def record(self, runner, path: str, source: str,
               findings: List[Finding]) -> None:
        facts = runner._facts_by_path.get(path)
        suppressions = runner._suppressions.get(path)
        if suppressions is None:  # syntax error: nothing worth caching
            return
        self._seen.append(path)
        self.entries[path] = {
            "key": _content_key(source),
            "rules": self._active_rule_ids(runner),
            "findings": [{
                "rule": f.rule, "severity": f.severity, "path": f.path,
                "line": f.line, "col": f.col, "end_line": f.end_line,
                "message": f.message, "suppressed": f.suppressed,
            } for f in findings],
            "facts": facts.to_json() if facts is not None else None,
            "suppressions": suppressions.to_json(),
        }

    # -- store-wide inferred signatures --------------------------------
    def files_key(self) -> str:
        """Digest of every seen file's (path, content hash) pair — the
        validity condition for the persisted signature table."""
        digest = hashlib.sha256()
        for path in sorted(set(self._seen)):
            entry = self.entries.get(path)
            if entry is not None:
                digest.update(path.encode("utf-8"))
                digest.update(entry["key"].encode("utf-8"))
        return digest.hexdigest()

    def restore_signatures(self) -> Optional[Dict[str, Any]]:
        """The cached simtype signature table, if it was computed from
        exactly the file contents this run saw (call after the per-file
        pass)."""
        if (self._signatures is not None
                and self._signatures.get("key") == self.files_key()):
            return self._signatures.get("table")
        return None

    def record_signatures(self, table: Optional[Dict[str, Any]]) -> None:
        if table is not None:
            self._signatures = {"key": self.files_key(), "table": table}

    def save(self) -> None:
        # Keep only files this run actually visited, so deleted or
        # newly-excluded files do not accumulate forever.
        seen = set(self._seen)
        files = {path: entry for path, entry in self.entries.items()
                 if path in seen}
        payload = {"schema": _CACHE_SCHEMA, "signature": self.signature,
                   "files": files, "signatures": self._signatures}
        tmp = self.path + ".tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
            os.replace(tmp, self.path)
        except OSError:  # pragma: no cover - read-only checkout etc.
            try:
                os.unlink(tmp)
            except OSError:
                pass
