"""Parallel campaign execution.

Campaigns are embarrassingly parallel *almost* everywhere: vantage
points interact only through the front-end servers they share (FE load
is concurrency-dependent and the FE-BE links carry the shared jitter /
loss RNG streams).  This package shards that independent work across a
:mod:`multiprocessing` pool, one :class:`~repro.sim.engine.Simulator`
per shard, and merges the results deterministically:

* :func:`run_dataset_a_sharded` / :func:`run_streaming_sharded` — the
  Dataset-A campaign and the open-loop streaming campaign
  (:mod:`repro.measure.streaming`) through one sharded wrapper.  The
  partition keeps every group of FE-sharing vantage points in one shard
  (:func:`fe_sharing_components`), which together with keyed per-query
  RNG draws (:meth:`RandomStreams.keyed`) makes the merged result
  *bit-identical* to the serial run at any shard count.  A failing
  shard raises :class:`ShardError`, naming the shard.  Dataset B aims
  every vantage point at one front-end, a single component, so it runs
  serially.
* :func:`run_over_seeds` — repeat a whole figure experiment across
  seeds, one process per seed.

Load-sensitivity experiments deliberately opt out: their entire point
is cross-client interaction through FE load, so splitting their clients
across simulators would change the phenomenon being measured (see
``docs/PERFORMANCE.md``).
"""

from repro.parallel.campaigns import (
    ShardError,
    run_dataset_a_sharded,
    run_streaming_sharded,
)
from repro.parallel.partition import (
    fe_sharing_components,
    partition_components,
)
from repro.parallel.pool import map_shards
from repro.parallel.seeds import run_over_seeds

__all__ = [
    "ShardError",
    "fe_sharing_components",
    "map_shards",
    "partition_components",
    "run_dataset_a_sharded",
    "run_over_seeds",
    "run_streaming_sharded",
]
