"""Seed-level sharding: repeat a figure experiment across seeds.

Different seeds are fully independent universes (every stream derives
from the root seed), so any experiment runner can fan out one process
per seed with no equivalence caveats at all.  The one exception is by
policy, not correctness: load-sensitivity runners are rejected to keep
the "measure cross-client FE load" family clearly outside the parallel
layer (see ``docs/PERFORMANCE.md``).
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Callable, List, Sequence, Union

from repro.experiments.common import ExperimentScale
from repro.parallel.pool import ShardError, map_shards

#: Runner names that must not go through the parallel layer.  Their
#: results are *about* in-simulator concurrency, so readers should
#: never wonder whether process-level parallelism touched them.
OPT_OUT = frozenset({
    "repro.experiments.load_sensitivity:run_load_sensitivity",
})

RunnerRef = Union[str, Callable[..., Any]]


@dataclass(frozen=True)
class _SeedTask:
    runner: str  # "package.module:function"
    scale: ExperimentScale
    seed: int


def _resolve_runner(runner: RunnerRef) -> str:
    if callable(runner):
        return "%s:%s" % (runner.__module__, runner.__qualname__)
    return runner


def _run_seed_task(task: _SeedTask) -> Any:
    try:
        module_name, _, func_name = task.runner.partition(":")
        func = getattr(importlib.import_module(module_name), func_name)
        return func(task.scale.with_overrides(seed=task.seed))
    except Exception as error:
        raise ShardError("seed %d (runner %s) failed: %s: %s"
                         % (task.seed, task.runner, type(error).__name__,
                            error)) from error


def run_over_seeds(runner: RunnerRef, scale: ExperimentScale,
                   seeds: Sequence[int],
                   processes: int = 0) -> List[Any]:
    """Run ``runner(scale_with_seed)`` for every seed, in parallel.

    ``runner`` is a module-level experiment function (or its
    ``"module:name"`` string) taking an :class:`ExperimentScale`;
    results come back in seed order.  A runner that raises surfaces as
    :class:`~repro.parallel.pool.ShardError` naming the seed and the
    runner, raised from the original.
    """
    name = _resolve_runner(runner)
    if name in OPT_OUT:
        raise ValueError(
            "%s studies cross-client FE load and opts out of the "
            "parallel layer" % name)
    tasks = [_SeedTask(runner=name, scale=scale, seed=seed)
             for seed in seeds]
    return map_shards(_run_seed_task, tasks, processes)
