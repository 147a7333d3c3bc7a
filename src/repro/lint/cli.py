"""Command-line interface for simlint.

Usage::

    python -m repro.lint [paths...] [--format text|json|sarif]
    python -m repro lint [paths...]          # same, via the main CLI
    repro-lint [paths...]                    # console-script entry point

Exit codes: 0 — clean (suppressed findings do not count); 1 — at least one blocking finding; 2 — configuration error,
unreadable/unparseable file, or an internal rule crash.  Syntax-error
files are reported as ``META001`` findings (the rest of the tree is
still linted) but force exit 2, so CI cannot mistake "could not
analyze" for "analyzed clean".
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from repro.lint.framework import (
    Finding,
    LintConfig,
    LintConfigError,
    LintRunner,
    all_rules,
    find_pyproject,
    load_config,
)

#: Version of the JSON report schema; bump when the shape changes and
#: update docs/LINTING.md plus tests/test_lint_config.py.
#: v2: added per-finding "baselined" plus top-level "baselined",
#: "errors", "files_analyzed" and "files_from_cache".
#: v3: added "signatures_from_cache" (inferred unit signatures restored
#: from a warm cache) and, under ``--stats``, a "stats" section with
#: per-rule-pack timing.
#: v4: rule set gained the effect-parity (EFF001-EFF004, RPLY rebuilt
#: on derived summaries) and RNG-lineage (RNG001-RNG003) packs; the
#: "stats" section gained the "simflow-engine" row.
#: v5: dropped "baselined" (top-level and per finding),
#: "files_from_cache" and "signatures_from_cache" with the baseline and
#: the incremental cache; the "simtype-engine" and "simflow-engine"
#: stats rows are gone with their engines, so "stats" holds one row
#: per rule pack.
JSON_SCHEMA_VERSION = 5


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Whole-project determinism / unit-safety / "
                    "event-safety / shard-safety / RNG-lineage "
                    "checks for the simulation universe.")
    parser.add_argument("paths", nargs="*", default=["src/repro"],
                        metavar="PATH",
                        help="files or directories to lint "
                             "(default: src/repro)")
    parser.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text", dest="output_format",
                        help="report format (default: text)")
    parser.add_argument("--select", action="append", default=[],
                        metavar="RULES",
                        help="comma-separated rule ids to run exclusively")
    parser.add_argument("--disable", action="append", default=[],
                        metavar="RULES",
                        help="comma-separated rule ids to skip")
    parser.add_argument("--config", metavar="PYPROJECT",
                        help="pyproject.toml to read [tool.simlint] from "
                             "(default: nearest to the first path)")
    parser.add_argument("--no-config", action="store_true",
                        help="ignore [tool.simlint] configuration entirely")
    parser.add_argument("--show-suppressed", action="store_true",
                        help="also list suppressed findings in text output")
    parser.add_argument("--stats", action="store_true",
                        help="measure per-rule-pack analyzer time and "
                             "report it (text: a table on stderr; json: "
                             "a \"stats\" section)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    return parser


def _split_ids(values: Sequence[str]) -> List[str]:
    ids: List[str] = []
    for value in values:
        ids.extend(part.strip() for part in value.split(",") if part.strip())
    return ids


def _resolve_config(args: argparse.Namespace) -> LintConfig:
    if args.no_config:
        config = LintConfig()
    else:
        pyproject = args.config or find_pyproject(args.paths[0])
        config = load_config(pyproject)
    select = _split_ids(args.select)
    disable = _split_ids(args.disable)
    if select:
        config = LintConfig(enable=tuple(select), disable=config.disable,
                            exclude=config.exclude)
    if disable:
        config = LintConfig(enable=config.enable,
                            disable=config.disable + tuple(disable),
                            exclude=config.exclude)
    config.validate()
    return config


def _pack_times(runner: LintRunner) -> dict:
    """Aggregate per-rule wall time to rule packs (rule-pack module
    name)."""
    rules = all_rules()
    packs: dict = {}
    for key, seconds in runner.rule_times.items():
        pack = rules[key].__module__.rsplit(".", 1)[-1]
        packs[pack] = packs.get(pack, 0.0) + seconds
    return packs


def _render_stats(runner: LintRunner, out) -> None:
    packs = _pack_times(runner)
    total = sum(packs.values())
    print("analyzer time by rule pack:", file=out)
    for pack in sorted(packs, key=lambda p: (-packs[p], p)):
        print("  %-20s %8.1f ms" % (pack, packs[pack] * 1000.0),
              file=out)
    print("  %-20s %8.1f ms" % ("total", total * 1000.0), file=out)


def _render_text(findings: List[Finding], runner: LintRunner,
                 show_suppressed: bool, out) -> None:
    blocking = [f for f in findings if f.blocking]
    shown = findings if show_suppressed \
        else [f for f in findings if not f.suppressed]
    for finding in shown:
        print(finding.render(), file=out)
    suppressed = sum(1 for f in findings if f.suppressed)
    print("%d file(s) scanned: %d finding(s), %d suppressed, "
          "%d error(s)"
          % (runner.files_scanned, len(blocking), suppressed,
             runner.errors), file=out)


def _render_json(findings: List[Finding], runner: LintRunner, out) -> None:
    blocking = [f for f in findings if f.blocking]
    counts = {severity: 0 for severity in ("error", "warning")}
    for finding in blocking:
        counts[finding.severity] = counts.get(finding.severity, 0) + 1
    report = {
        "version": JSON_SCHEMA_VERSION,
        "files_scanned": runner.files_scanned,
        "files_analyzed": runner.files_analyzed,
        "errors": runner.errors,
        "counts": counts,
        "suppressed": sum(1 for f in findings if f.suppressed),
        "findings": [f.as_dict() for f in findings],
    }
    if runner.collect_stats:
        report["stats"] = {"rule_pack_seconds": _pack_times(runner)}
    json.dump(report, out, indent=2, sort_keys=True)
    out.write("\n")


def _render_sarif(findings: List[Finding], out) -> None:
    from repro import __version__
    from repro.lint.sarif import sarif_report
    report = sarif_report(findings, all_rules(), __version__)
    json.dump(report, out, indent=2, sort_keys=True)
    out.write("\n")


def _list_rules(out) -> None:
    for rule_id, rule in sorted(all_rules().items()):
        scope = getattr(rule, "scope", "file")
        print("%s %-22s [%s/%s] %s"
              % (rule_id, rule.name, rule.severity, scope,
                 rule.description), file=out)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        _list_rules(sys.stdout)
        return 0
    try:
        config = _resolve_config(args)
        runner = LintRunner(config)
        runner.collect_stats = args.stats
        findings = runner.run_paths(args.paths)
    except LintConfigError as exc:
        print("simlint: configuration error: %s" % exc, file=sys.stderr)
        return 2
    if args.output_format == "json":
        _render_json(findings, runner, sys.stdout)
    elif args.output_format == "sarif":
        _render_sarif(findings, sys.stdout)
    else:
        _render_text(findings, runner, args.show_suppressed, sys.stdout)
        if args.stats:
            _render_stats(runner, sys.stderr)
    if runner.errors:
        return 2
    return 1 if any(f.blocking for f in findings) else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
