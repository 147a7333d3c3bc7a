"""Process-wide observability switch and singletons.

Instrumentation sites throughout the stack (engine, TCP, links,
services, drivers) are guarded by one module-level boolean::

    from repro.obs import runtime as _obs
    ...
    if _obs.enabled:
        _obs.metrics.inc("tcp.retransmissions")

Reading a module attribute is the cheapest guard Python offers, and
every guard sits on a *rare* path (a retransmit, a loss, a completed
request) — never inside the per-event dispatch loop — so the disabled
configuration adds no measurable overhead (benchmarked in
``benchmarks/test_bench_microperf.py``).

The switch initialises from the ``REPRO_TRACE`` environment variable
(same falsy convention as ``REPRO_REPLAY_CACHE``): unset/``0``/``off``/
``false``/``no`` leave tracing disabled; any other value enables it,
and a value that is not simply ``1``/``on``/``true``/``yes`` is also
taken as the JSONL export path by the CLI.  Worker processes created
by :func:`repro.parallel.map_shards` inherit the flag via fork and
additionally re-assert it from the parent's value.

:func:`capture` is the one way to take a piece of work's recordings
apart from the rest: inside it, instrumentation writes to a fresh
tracer and registry, and only :func:`absorb` folds them into the outer
ones.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer

_FALSY = ("", "0", "off", "false", "no")
_BARE_TRUTHY = ("1", "on", "true", "yes")


def env_setting() -> Optional[str]:
    """The raw ``REPRO_TRACE`` value, or None when unset/falsy."""
    value = os.environ.get("REPRO_TRACE", "")
    if value.strip().lower() in _FALSY:
        return None
    return value


def env_trace_path() -> Optional[str]:
    """A JSONL export path carried in ``REPRO_TRACE``, if any.

    Bare truthy values ("1", "on", ...) enable tracing without implying
    an export file; anything else names the file to write.
    """
    value = env_setting()
    if value is None or value.strip().lower() in _BARE_TRUTHY:
        return None
    return value


#: Master switch.  Mutable module attribute, read (not imported) at
#: every instrumentation site so enable()/disable() take effect
#: everywhere immediately.
enabled: bool = env_setting() is not None

#: The current tracer and registry: process-wide, or the innermost
#: open :func:`capture`'s.  They exist even while disabled (cheap:
#: empty dicts/lists) so guards stay one-line.
tracer = Tracer()
metrics = MetricsRegistry()


class Capture:
    """The tracer and registry one :func:`capture` block recorded into."""

    __slots__ = ("tracer", "metrics")

    def __init__(self):
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()


@contextmanager
def capture() -> Iterator[Optional[Capture]]:
    """Record into a fresh tracer and registry for the block's length.

    Yields the :class:`Capture` and restores the outer tracer and
    registry on exit, even when the block raises; what it holds reaches
    them only through :func:`absorb`.  With tracing off nothing
    records, so nothing is opened and the block gets None.
    """
    if not enabled:
        yield None
        return
    outer = tracer, metrics
    captured = Capture()
    _install(captured.tracer, captured.metrics)
    try:
        yield captured
    finally:
        _install(*outer)


def _install(new_tracer: Tracer, new_metrics: MetricsRegistry) -> None:
    global tracer, metrics
    # Per-process by design, as the switch is: a capture belongs to the
    # process that opened it and leaves it only as a return value.
    tracer, metrics = new_tracer, new_metrics  # simlint: ignore[SHARD001]


def absorb(captured: Capture) -> None:
    """Fold a finished capture into the current tracer and registry.

    The spans move rather than copy, and the capture is left empty, so
    absorbing it twice counts it once.
    """
    tracer.absorb(captured.tracer.spans)
    captured.tracer.clear()
    metrics.absorb(captured.metrics.snapshot())
    captured.metrics.clear()


def enable() -> None:
    global enabled
    # Shard workers re-assert the flag on purpose: the switch is
    # per-process, and what workers record reaches the parent only in
    # their return values (see repro.parallel.pool.map_shards).
    enabled = True  # simlint: ignore[SHARD001]


def disable() -> None:
    global enabled
    enabled = False


def reset() -> None:
    """Drop all recorded spans and metrics (keeps the switch as-is)."""
    tracer.clear()
    metrics.clear()


def configure_from_env() -> None:
    """Re-read ``REPRO_TRACE`` (e.g. after the CLI mutates environ)."""
    global enabled
    enabled = env_setting() is not None
