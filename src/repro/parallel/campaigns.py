"""Sharded campaigns: one wrapper over the FE-sharing partition.

Each shard process rebuilds the *full* scenario from its
:class:`~repro.testbed.scenario.ScenarioConfig` (construction is
deterministic, so every shard sees the identical universe) and runs the
campaign for only its slice of vantage points.  The partition keeps
every group of FE-sharing vantage points in one shard
(:func:`~repro.parallel.partition.fe_sharing_components`), so each
front-end's whole submission stream lives in one shard.  Start times
come from each VP's index in the full fleet (Dataset A) or from the
regenerated workload stream, and the load/processing draws are keyed
per query (``ScenarioConfig(keyed_service_draws=True)``, which this
module requires), so a query executes identically in any process: the
merged result is bit-identical to the serial run.

Only config-built scenarios can be sharded — the worker has nothing but
the config to rebuild from, so scenarios constructed with custom
service profiles are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.content.keywords import Keyword
from repro.measure.driver import DatasetA, run_dataset_a
from repro.measure.streaming import (
    StreamingCampaignResult,
    run_streaming_campaign,
)
from repro.parallel.partition import (
    fe_sharing_components,
    partition_components,
)
from repro.parallel.pool import map_shards
from repro.sim.stats import sum_stats
from repro.testbed.scenario import Scenario, ScenarioConfig
from repro.workload.generator import OpenLoopWorkload, WorkloadSpec


class ShardError(RuntimeError):
    """A shard worker failed; the message names the shard.

    Raised from the original exception (``raise ... from``).  Through a
    process pool the original arrives as the pool's remote-traceback
    text, which the message repeats.
    """


@dataclass(frozen=True)
class _Shard:
    """Picklable work order for one shard.

    The worker rebuilds the scenario from ``config`` and runs the
    campaign over the vantage points ``vp_names``: Dataset A over
    ``keywords`` when ``spec`` is None, else the streaming campaign over
    the workload ``spec`` generates.  ``kwargs`` go to the campaign
    function.  ``observe`` mirrors the parent's :mod:`repro.obs` enabled
    flag: workers re-assert it so tracing survives any process start
    method and per-shard captures come back on the result.
    """

    index: int
    count: int
    config: ScenarioConfig
    vp_names: Tuple[str, ...]
    kwargs: Dict[str, object]
    keywords: Tuple[Keyword, ...] = ()
    spec: Optional[WorkloadSpec] = None
    observe: bool = False


def _run_shard(shard: _Shard):
    try:
        if shard.observe:
            obs.enable()
        scenario = Scenario(shard.config)
        by_name = {vp.name: vp for vp in scenario.vantage_points}
        vps = [by_name[name] for name in shard.vp_names]
        if shard.spec is None:
            return run_dataset_a(scenario, list(shard.keywords),
                                 vantage_points=vps, **shard.kwargs)
        # The workload's determinism contract (sequential arrival
        # stream plus per-session RNGs, see repro.workload.generator)
        # makes every shard regenerate the identical global stream and
        # filter it to its own vantage points.
        workload = OpenLoopWorkload(
            shard.spec, [vp.name for vp in scenario.vantage_points])
        return run_streaming_campaign(scenario, workload,
                                      vantage_points=vps, **shard.kwargs)
    except Exception as error:
        raise ShardError(
            "shard %d of %d (first vantage point %s) failed: %s: %s"
            % (shard.index, shard.count, shard.vp_names[0],
               type(error).__name__, error)) from error


def _shard_orders(scenario: Scenario, services: Sequence[str],
                  shards: int, kwargs: Dict[str, object],
                  keywords: Tuple[Keyword, ...] = (),
                  spec: Optional[WorkloadSpec] = None) -> List[_Shard]:
    """One work order per shard of the FE-sharing partition."""
    _check_shardable(scenario, services)
    partition = partition_components(
        fe_sharing_components(scenario, services), shards)
    return [_Shard(index=index, count=len(partition),
                   config=scenario.config,
                   vp_names=tuple(vp.name for vp in part), kwargs=kwargs,
                   keywords=keywords, spec=spec, observe=obs.enabled())
            for index, part in enumerate(partition)]


#: Histogram bounds for per-shard session counts.
_SHARD_SESSION_BOUNDS = (10, 30, 100, 300, 1_000, 3_000, 10_000)


def _merge_observability(obs_mark, results: Sequence[object], merged,
                         sessions: Sequence[int]) -> None:
    """Fold per-shard observability captures into the merged result.

    The runner first rolls the live runtime back to ``obs_mark``: when
    :func:`~repro.parallel.pool.map_shards` fell back to inline
    execution, the shard campaigns recorded straight into this
    process's tracer/registry, and absorbing their snapshots too would
    double-count.  (With real worker processes the rollback is a
    no-op.)  Sim-scope metrics and spans merge to exactly the serial
    campaign's capture; host-scope metrics add up across shards.
    Datasets carry spans; streaming results carry metrics only (their
    spans would grow with the event count).  ``sessions`` are the
    per-shard session counts.
    """
    if obs_mark is None:
        return
    obs.rollback(obs_mark)
    merged.obs_metrics = obs.merge_metrics(
        [result.obs_metrics for result in results])
    trace = None
    if isinstance(merged, DatasetA):
        trace = merged.trace = obs.merge_traces(
            [result.trace for result in results])
    obs.absorb(trace, merged.obs_metrics)
    registry = obs.runtime.metrics
    registry.inc("campaign.shards", len(results))
    for count in sessions:
        registry.observe("shard.sessions", count, _SHARD_SESSION_BOUNDS)


def _check_shardable(scenario: Scenario,
                     service_names: Sequence[str]) -> None:
    from repro.testbed.scenario import scenario_profiles

    # Compare against the profiles a worker rebuilding from the config
    # would construct — config-level transforms (deterministic_services)
    # are shardable, hand-passed custom profiles are not.  Only the
    # services this campaign runs are checked (and thus built — the
    # scenario constructs deployments lazily).
    defaults = scenario_profiles(scenario.config)
    for name in service_names:
        if defaults.get(name) != scenario.service(name).profile:
            raise ValueError(
                "sharding requires a config-built scenario; service %r "
                "uses a custom profile the worker processes cannot "
                "rebuild" % name)
    if not scenario.config.keyed_service_draws:
        raise ValueError(
            "sharded campaigns require a scenario built with "
            "ScenarioConfig(keyed_service_draws=True): with the default "
            "shared sequential RNG streams, a shard's service-delay "
            "draws would depend on queries running in other shards")
    if scenario.config.fe_cache.shared_regional:
        raise ValueError(
            "sharded campaigns cannot use a shared regional cache "
            '(fe_cache.regional_scope="shared"): its contents depend on '
            "the interleaved miss streams of every front-end homed on a "
            "back-end, and front-ends land in different shards; use "
            'regional_scope="per-fe" or run serially')


def run_dataset_a_sharded(scenario: Scenario,
                          keywords: Sequence[Keyword], *,
                          repeats: int = 10,
                          interval: float = 10.0,
                          services: Optional[Sequence[str]] = None,
                          shards: int = 2,
                          processes: int = 0,
                          replay_cache: Optional[bool] = None,
                          tier: Optional[str] = None) -> DatasetA:
    """Sharded :func:`~repro.measure.driver.run_dataset_a`.

    ``scenario`` is used only to partition the fleet and to carry the
    config; it is *not* run (workers rebuild their own copy).  The
    merged dataset is bit-identical to the serial run for the same
    seed.

    ``replay_cache`` (None = env default, or a bool) is forwarded to
    every worker; each builds its own per-shard cache, so cache objects
    never cross processes.  ``tier`` is forwarded too; tier decisions
    are per-stratum (service, FE, VP) and strata never span shards, so
    sharded tiering is bit-identical to serial.
    """
    service_names = list(services or scenario.services)
    orders = _shard_orders(
        scenario, service_names, shards,
        dict(repeats=repeats, interval=interval, services=service_names,
             replay_cache=replay_cache, tier=tier),
        keywords=tuple(keywords))
    obs_mark = obs.fork_mark() if obs.enabled() else None
    results = map_shards(_run_shard, orders, processes)

    # Per-shard caches need no coordination: a shard replays only its
    # own sessions, each bit-identical to its simulated counterpart.
    # Strata never span shards, so the tier counters equal the serial
    # run's exactly.
    merged = DatasetA(replay=sum_stats(result.replay for result in results),
                      tier=sum_stats(result.tier for result in results))
    # Regroup by vantage point in fleet order (stable sorts keep each
    # VP's own order): the serial driver's session list and even its
    # default-FE dict order.
    fleet = {vp.name: index
             for index, vp in enumerate(scenario.vantage_points)}
    merged.sessions = sorted(
        (session for result in results for session in result.sessions),
        key=lambda session: fleet[session.vp_name])
    merged.default_fe = dict(sorted(
        (item for result in results for item in result.default_fe.items()),
        key=lambda item: fleet[item[0][0]]))
    _merge_observability(obs_mark, results, merged,
                         [len(result.sessions) for result in results])
    return merged


def run_streaming_sharded(scenario: Scenario, spec: WorkloadSpec, *,
                          shards: int = 2,
                          processes: int = 0,
                          batch_events: int = 2048,
                          lookahead: float = 30.0,
                          replay_cache: Optional[bool] = None,
                          tier: Optional[str] = None
                          ) -> StreamingCampaignResult:
    """Sharded :func:`~repro.measure.streaming.run_streaming_campaign`.

    With keyed service draws the merged result is bit-identical to the
    serial streaming run — same counters, same quantile-sketch
    fingerprints — at any shard count.

    Only spec-built workloads shard: a worker regenerates the stream
    from the picklable :class:`~repro.workload.generator.WorkloadSpec`.
    Replay traces (:class:`~repro.workload.trace.TraceWorkload`) run
    serially instead.
    """
    orders = _shard_orders(
        scenario, spec.services, shards,
        dict(batch_events=batch_events, lookahead=lookahead,
             replay_cache=replay_cache, tier=tier),
        spec=spec)
    obs_mark = obs.fork_mark() if obs.enabled() else None
    results = map_shards(_run_shard, orders, processes)
    merged = StreamingCampaignResult.merged(results)
    merged.spec = spec
    _merge_observability(obs_mark, results, merged,
                         [result.sessions for result in results])
    return merged
