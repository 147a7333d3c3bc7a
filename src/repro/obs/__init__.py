"""Observability: structured tracing + metrics for simulated campaigns.

The paper's method is instrumentation — decomposing each query's packet
timeline into the t1..te landmarks to attribute delay to the FE versus
the BE.  This package applies the same discipline to the simulator
itself: campaigns produce a span per query session (with the landmark
events and FE/BE ground-truth child spans), a metrics registry counts
engine/TCP/replay work, and exporters write JSONL (schema v1), Chrome
trace-event JSON, and plain-text summaries.  docs/OBSERVABILITY.md is
the reference.

Design rules:

* **Zero cost when disabled.**  All instrumentation is guarded by the
  module-level flag in :mod:`repro.obs.runtime`, and every guard sits
  on a rare path; spans are built post hoc from data the simulation
  records anyway.
* **Sim-time only, deterministic.**  Span timestamps are simulated
  seconds; exports are canonically ordered; a serial campaign and a
  sharded run of it (``repro.parallel``) serialize byte-identically
  for sim-scope data.
* **One capture primitive.**  :func:`capture` sends everything
  recorded inside it to a fresh tracer and registry and restores the
  outer ones on exit; the caller decides whether to :func:`absorb` it.
  Campaign drivers, shard workers and CLI experiment workers each
  record into their own, so nothing is ever subtracted or rolled back.
* **No import cycles.**  This module (which instrumented code imports)
  pulls in only :mod:`~repro.obs.runtime`, :mod:`~repro.obs.trace` and
  :mod:`~repro.obs.metrics` — none of which import the simulator.
  Recording/export helpers load lazily.

Typical use::

    from repro import obs
    obs.enable()
    dataset = run_dataset_a(scenario, keywords)
    obs.export_jsonl("campaign.jsonl")
    print(obs.render_summary())
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.obs import runtime
from repro.obs.metrics import (
    SCOPE_HOST,
    SCOPE_SIM,
    MetricsRegistry,
    MetricsSnapshot,
)
from repro.obs.runtime import Capture, absorb, capture
from repro.obs.trace import Span, Tracer, merge_span_dicts

__all__ = [
    "SCOPE_HOST", "SCOPE_SIM", "Capture", "MetricsRegistry",
    "MetricsSnapshot", "Span", "Tracer", "absorb",
    "annotate_boundaries", "capture", "configure_from_env", "disable",
    "enable", "enabled", "env_trace_path", "export_chrome",
    "export_jsonl", "merge_metrics", "merge_span_dicts", "merge_traces",
    "record_campaign", "render_summary", "reset", "runtime",
]


def enabled() -> bool:
    return runtime.enabled


def enable() -> None:
    runtime.enable()


def disable() -> None:
    runtime.disable()


def reset() -> None:
    runtime.reset()


def configure_from_env() -> None:
    runtime.configure_from_env()


def env_trace_path() -> Optional[str]:
    return runtime.env_trace_path()


# ----------------------------------------------------------------------
# campaign recording (drivers)
# ----------------------------------------------------------------------
def record_campaign(kind: str, scenario, dataset,
                    engine_start: Tuple[int, int]) -> None:
    """Record a finished campaign's spans and metrics into the current
    capture (see :func:`repro.obs.record.record_campaign`)."""
    from repro.obs.record import record_campaign as record
    record(kind, scenario, dataset, engine_start)


def annotate_boundaries(metrics_list) -> None:
    """Add t4/t5 + static/dynamic phases after calibration."""
    if not runtime.enabled:
        return
    from repro.obs.record import annotate_boundaries as annotate
    annotate(metrics_list)


# ----------------------------------------------------------------------
# shard merge (parallel.campaigns)
# ----------------------------------------------------------------------
def merge_traces(traces: List[Optional[List[dict]]]) -> List[dict]:
    """Combine per-shard span snapshots into one canonical list."""
    return merge_span_dicts([trace for trace in traces if trace])


def merge_metrics(snapshots: List[Optional[MetricsSnapshot]]
                  ) -> MetricsSnapshot:
    """Order-independent aggregate of per-shard metric snapshots."""
    present = [snap for snap in snapshots if snap is not None]
    if not present:
        return MetricsSnapshot.empty()
    return MetricsSnapshot.merge(present)


# ----------------------------------------------------------------------
# exports (CLI)
# ----------------------------------------------------------------------
def export_jsonl(path: str) -> None:
    """Write everything currently recorded as JSONL schema v1."""
    from repro.obs.export import write_jsonl
    write_jsonl(path, runtime.tracer.snapshot(),
                runtime.metrics.snapshot())


def export_chrome(path: str) -> None:
    """Write everything currently recorded as Chrome trace JSON."""
    from repro.obs.export import write_chrome_trace
    write_chrome_trace(path, runtime.tracer.snapshot())


def render_summary(title: str = "observability summary") -> str:
    """Plain-text summary of everything currently recorded."""
    from repro.obs.report import render_summary as render
    return render(title=title)
