"""Tests for the parallel campaign layer.

The load-bearing property is *bit-identical equivalence*: a campaign
sharded across processes must produce exactly the session list the
serial run produces — same timestamps, same packet traces, same draw
values — for the same seed.  Everything else (partitioning, pool
plumbing, seed sweeps) supports that.
"""

import re

import pytest

from repro.content.keywords import Keyword
from repro.measure.driver import run_dataset_a
from repro.parallel import (
    ShardError,
    fe_sharing_components,
    map_shards,
    partition_components,
    run_dataset_a_sharded,
    run_over_seeds,
)
from repro.testbed.scenario import Scenario, ScenarioConfig

# Sharded campaigns require per-query keyed service draws; the serial
# run in the equivalence test uses the same config so both sides see
# identical RNG realizations.
CONFIG = ScenarioConfig(seed=3, vantage_count=14,
                        keyed_service_draws=True)

KEYWORDS = [
    Keyword(text="alpha query", popularity=0.6, complexity=0.3),
    Keyword(text="beta query terms", popularity=0.2, complexity=0.7),
]


def session_fingerprint(session):
    """Every observable of one session, for exact comparison."""
    return (
        session.query_id, session.service, session.vp_name,
        session.fe_name, session.local_port, session.started_at,
        session.completed_at, session.failed, session.response_size,
        session.path_rtt,
        tuple((e.time, e.direction, e.src, e.dst, e.sport, e.dport,
               e.wire_size, e.payload_len, e.seq, e.ack, e.syn, e.fin,
               e.ack_flag, e.retransmit)
              for e in session.events),
    )


# ---------------------------------------------------------------------------
# equivalence
# ---------------------------------------------------------------------------
def test_dataset_a_sharded_bit_identical_to_serial():
    serial_scenario = Scenario(CONFIG)
    serial = run_dataset_a(serial_scenario, KEYWORDS,
                           repeats=2, interval=1.0)

    sharded_scenario = Scenario(CONFIG)
    sharded = run_dataset_a_sharded(sharded_scenario, KEYWORDS,
                                    repeats=2, interval=1.0,
                                    shards=3, processes=2)

    assert serial.default_fe == sharded.default_fe
    assert list(serial.default_fe) == list(sharded.default_fe)
    assert len(serial.sessions) == len(sharded.sessions) > 0
    for ours, theirs in zip(serial.sessions, sharded.sessions):
        assert session_fingerprint(ours) == session_fingerprint(theirs)


def test_dataset_a_sharded_inline_matches_pool():
    # processes=1 exercises the inline fallback over the same partition.
    scenario_a = Scenario(CONFIG)
    pooled = run_dataset_a_sharded(scenario_a, KEYWORDS,
                                   repeats=1, interval=1.0,
                                   shards=3, processes=2)
    scenario_b = Scenario(CONFIG)
    inline = run_dataset_a_sharded(scenario_b, KEYWORDS,
                                   repeats=1, interval=1.0,
                                   shards=3, processes=1)
    assert ([session_fingerprint(s) for s in pooled.sessions]
            == [session_fingerprint(s) for s in inline.sessions])


# ---------------------------------------------------------------------------
# partitioning
# ---------------------------------------------------------------------------
def test_partition_keeps_fe_sharing_vps_together():
    scenario = Scenario(CONFIG)
    shards = partition_components(
        fe_sharing_components(scenario), 4)
    shard_of_vp = {vp.name: index
                   for index, shard in enumerate(shards)
                   for vp in shard}
    assert sorted(shard_of_vp) == sorted(
        vp.name for vp in scenario.vantage_points)
    for service_name in scenario.services:
        by_fe = {}
        for vp in scenario.vantage_points:
            fe = scenario.default_frontend(service_name, vp).node.name
            by_fe.setdefault(fe, set()).add(shard_of_vp[vp.name])
        for fe, shard_ids in by_fe.items():
            assert len(shard_ids) == 1, (
                "VPs sharing FE %s split across shards %s"
                % (fe, sorted(shard_ids)))


# ---------------------------------------------------------------------------
# pool plumbing
# ---------------------------------------------------------------------------
def _square(value):
    return value * value


def test_map_shards_preserves_submission_order():
    assert map_shards(_square, [3, 1, 2], processes=2) == [9, 1, 4]
    assert map_shards(_square, [3, 1, 2], processes=1) == [9, 1, 4]
    assert map_shards(_square, [], processes=4) == []


# ---------------------------------------------------------------------------
# seed sweeps
# ---------------------------------------------------------------------------
def test_run_over_seeds_runs_experiment_per_seed():
    from repro.experiments.common import ExperimentScale
    from repro.experiments.dataset_a import run_dataset_a_experiment

    scale = ExperimentScale(vantage_count=8, repeats=1, interval=1.0)
    results = run_over_seeds(run_dataset_a_experiment, scale, [1, 2],
                             processes=2)
    assert [r.scale.seed for r in results] == [1, 2]
    for result in results:
        for service, metrics in result.metrics.items():
            assert len(metrics) == 8  # one query per VP per service
    # Different seeds genuinely are different universes.
    assert results[0].default_rtts != results[1].default_rtts


def test_experiment_level_sharding_is_internally_consistent():
    from repro.experiments.common import ExperimentScale
    from repro.experiments.dataset_a import run_dataset_a_experiment

    # shards>1 switches the scenario into keyed-draw mode, so the
    # metric *values* differ from the serial default (different RNG
    # realization).  Within that mode the run must not depend on how
    # many processes host the shards, and build-deterministic outputs
    # (default-FE RTTs) must match the serial run exactly.
    scale = ExperimentScale(vantage_count=8, repeats=1, interval=1.0,
                            seed=5)
    serial = run_dataset_a_experiment(scale, shards=1)
    pooled = run_dataset_a_experiment(scale, shards=2, processes=2)
    inline = run_dataset_a_experiment(scale, shards=2, processes=1)
    assert serial.default_rtts == pooled.default_rtts
    assert pooled.default_rtts == inline.default_rtts
    assert sorted(pooled.metrics) == sorted(serial.metrics)
    for service in pooled.metrics:
        ours = [(m.rtt, m.tstatic, m.tdynamic, m.overall_delay)
                for m in pooled.metrics[service]]
        theirs = [(m.rtt, m.tstatic, m.tdynamic, m.overall_delay)
                  for m in inline.metrics[service]]
        assert ours == theirs
        assert len(ours) == len(serial.metrics[service])


def test_sharded_campaign_rejects_sequential_draw_scenario():
    scenario = Scenario(ScenarioConfig(seed=3, vantage_count=14))
    with pytest.raises(ValueError, match="keyed_service_draws"):
        run_dataset_a_sharded(scenario, KEYWORDS, repeats=1,
                              interval=1.0, shards=2, processes=1)


def _fails_on_seed_two(scale):
    if scale.seed == 2:
        raise KeyError("no such figure")
    return scale.seed


@pytest.mark.parametrize("processes", [1, 2])
def test_run_over_seeds_names_the_failing_seed(processes):
    from repro.experiments.common import ExperimentScale

    with pytest.raises(ShardError) as caught:
        run_over_seeds(_fails_on_seed_two, ExperimentScale(), [1, 2, 3],
                       processes=processes)
    assert re.match(r"seed 2 \(runner \S+:_fails_on_seed_two\) failed: "
                    r"KeyError: 'no such figure'$", str(caught.value)), \
        str(caught.value)
    # Inline the cause is the KeyError; through a pool, its traceback.
    assert "no such figure" in str(caught.value.__cause__)


def test_run_over_seeds_rejects_load_sensitivity():
    from repro.experiments.load_sensitivity import run_load_sensitivity
    with pytest.raises(ValueError):
        run_over_seeds(run_load_sensitivity, None, [1, 2])
