"""Process-pool plumbing shared by all sharded runners.

Kept deliberately thin: a single :func:`map_shards` that preserves
submission order (results come back positionally, so merges never
depend on completion order) and falls back to an inline loop when a
pool would not help — one shard, one process, or a worker that is
already running inside a daemon process.  Either way each worker call
records observability data into a capture of its own that is then
dropped, so a worker's only output is its return value.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Callable, List, Sequence, Tuple, TypeVar

from repro import obs

T = TypeVar("T")
R = TypeVar("R")


class ShardError(RuntimeError):
    """A shard worker failed; the message names the shard (a campaign's
    slice of vantage points, or one seed of a sweep).

    Raised from the original exception (``raise ... from``).  Through a
    process pool the original arrives as the pool's remote-traceback
    text, which the message repeats.
    """


def default_processes() -> int:
    """Default pool size: the machine's CPU count."""
    return os.cpu_count() or 1


def map_shards(worker: Callable[[T], R], shard_args: Sequence[T],
               processes: int = 0) -> List[R]:
    """Run ``worker`` over ``shard_args``; results in submission order.

    ``processes`` caps the pool size (0 means one per CPU).  With a
    single shard, a single process, or when called from a process that
    cannot fork workers (a daemonic pool child), the work runs inline —
    same results, no pool.  ``worker`` must be a module-level function
    and every argument/result picklable; shard specs in
    :mod:`repro.parallel.campaigns` are plain frozen dataclasses for
    exactly this reason.

    Every call runs inside an :func:`repro.obs.capture` that is
    dropped, with tracing switched on when the caller's is: whatever a
    worker wants kept it returns (a campaign's ``trace`` and
    ``obs_metrics``), and the caller merges it.
    """
    calls = [(worker, obs.enabled(), arg) for arg in shard_args]
    if not calls:
        return []
    if processes <= 0:
        processes = default_processes()
    processes = min(processes, len(calls))
    if processes <= 1 or _in_daemon():
        return [_call_captured(call) for call in calls]
    with multiprocessing.Pool(processes) as pool:
        return pool.map(_call_captured, calls)


def _call_captured(call: Tuple[Callable[[T], R], bool, T]) -> R:
    """One worker call inside a capture it drops."""
    worker, traced, arg = call
    if traced:
        obs.enable()
    with obs.capture():
        return worker(arg)


def _in_daemon() -> bool:
    """True when already inside a pool worker (workers can't fork)."""
    return multiprocessing.current_process().daemon
