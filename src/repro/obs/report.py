"""Plain-text campaign summaries and the ``repro report`` subcommand.

Two entry points:

* :func:`render_summary` — format the live runtime's spans + metrics
  (used by the CLI's ``--metrics`` flag right after a run);
* :func:`main` — ``python -m repro report TRACE.jsonl``: load a JSONL
  export (:mod:`repro.obs.export`) and print the same summary from the
  serialized records, so a trace file is self-describing without
  re-running anything.

Output is deterministic: names sorted, no timestamps of the host run.
"""

from __future__ import annotations

import argparse
from typing import Dict, List, Optional, Sequence

from repro.obs import runtime
from repro.obs.export import read_jsonl
from repro.obs.metrics import MetricsSnapshot


def _span_name_counts(flat_records: List[dict]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for record in flat_records:
        counts[record["name"]] = counts.get(record["name"], 0) + 1
    return counts


def _format_value(value) -> str:
    if isinstance(value, float):
        return "%.6g" % value
    return str(value)


def _render(span_counts: Dict[str, int], session_failures: int,
            metric_records: List[dict], title: str) -> str:
    lines = [title, "=" * len(title)]
    lines.append("")
    lines.append("spans")
    lines.append("-----")
    if span_counts:
        width = max(len(name) for name in span_counts)
        for name in sorted(span_counts):
            lines.append("  %-*s %6d" % (width, name, span_counts[name]))
        if session_failures:
            lines.append("  (%d session span(s) marked failed)"
                         % session_failures)
    else:
        lines.append("  (none recorded)")
    lines.append("")
    lines.append("metrics")
    lines.append("-------")
    if not metric_records:
        lines.append("  (none recorded)")
    for record in metric_records:
        if record["type"] == "counter" or record["type"] == "gauge":
            lines.append("  %-38s %14s  [%s %s]"
                         % (record["name"],
                            _format_value(record["value"]),
                            record["scope"], record["type"]))
        else:
            mean = (record["sum"] / record["count"]
                    if record["count"] else 0.0)
            lines.append("  %-38s n=%-6d mean=%s min=%s max=%s  [%s "
                         "histogram]"
                         % (record["name"], record["count"],
                            _format_value(mean),
                            _format_value(record["min"]),
                            _format_value(record["max"]),
                            record["scope"]))
    return "\n".join(lines)


def render_summary(snapshot: Optional[MetricsSnapshot] = None,
                   span_dicts: Optional[List[dict]] = None,
                   title: str = "observability summary") -> str:
    """Summarize the live runtime (or explicit snapshot/spans)."""
    from repro.obs.export import flatten_spans
    if snapshot is None:
        snapshot = runtime.metrics.snapshot()
    if span_dicts is None:
        span_dicts = runtime.tracer.snapshot()
    flat = flatten_spans(span_dicts)
    failures = sum(1 for record in flat
                   if record["name"] == "session"
                   and record["attrs"].get("failed"))
    return _render(_span_name_counts(flat), failures,
                   snapshot.as_records(), title)


def summarize_export(payload: dict, path: str) -> str:
    """Summary text for a parsed JSONL export (see ``read_jsonl``)."""
    spans = payload["spans"]
    failures = sum(1 for record in spans
                   if record["name"] == "session"
                   and record.get("attrs", {}).get("failed"))
    title = "observability summary — %s (schema %s v%d)" % (
        path, payload["header"]["schema"], payload["header"]["version"])
    return _render(_span_name_counts(spans), failures,
                   payload["metrics"], title)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro report TRACE.jsonl`` entry point."""
    parser = argparse.ArgumentParser(
        prog="python -m repro report",
        description="Summarize a repro.obs JSONL trace export: span "
                    "counts, campaign metrics, replay-cache hit rates.")
    parser.add_argument("trace", help="JSONL file written by --trace "
                                      "or REPRO_TRACE")
    args = parser.parse_args(argv)
    try:
        payload = read_jsonl(args.trace)
    except (OSError, ValueError) as error:
        print("repro report: %s" % error)
        return 2
    print(summarize_export(payload, args.trace))
    return 0
