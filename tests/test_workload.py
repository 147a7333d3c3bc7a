"""Tests for the open-loop workload generators (repro.workload)."""

import random

import pytest

from repro.workload import (
    DiurnalArrivals,
    FlashCrowdArrivals,
    OpenLoopWorkload,
    PoissonArrivals,
    TraceFormatError,
    TraceWorkload,
    WorkloadSpec,
    ZipfPopularity,
    make_arrivals,
    read_events,
    write_events,
    zipf_universe,
)
from repro.workload import cli as workload_cli

VPS = ["vp-%03d" % index for index in range(9)]


def _spec(**overrides):
    base = dict(seed=13, users=120, duration=300.0, session_rate=0.8,
                keyword_count=64, services=("google-like",))
    base.update(overrides)
    return WorkloadSpec(**base)


# ---------------------------------------------------------------------------
# popularity
# ---------------------------------------------------------------------------
def test_zipf_universe_is_ranked_and_deterministic():
    first = zipf_universe(7, 32)
    second = zipf_universe(7, 32)
    assert first == second
    popularity = [keyword.popularity for keyword in first]
    assert popularity == sorted(popularity, reverse=True)


def test_zipf_probabilities_sum_to_one_and_decay():
    popularity = ZipfPopularity(zipf_universe(7, 32), alpha=1.0)
    probabilities = [popularity.probability(rank)
                     for rank in range(1, 33)]
    assert sum(probabilities) == pytest.approx(1.0)
    assert probabilities == sorted(probabilities, reverse=True)
    assert probabilities[0] / probabilities[15] == pytest.approx(16.0)


def test_zipf_skew_concentrates_head_mass():
    universe = zipf_universe(7, 64)
    rng_flat, rng_skewed = random.Random(1), random.Random(1)
    flat = ZipfPopularity(universe, alpha=0.2)
    skewed = ZipfPopularity(universe, alpha=1.4)
    head = universe[0]
    flat_hits = sum(flat.sample(rng_flat) == head for _ in range(2000))
    skewed_hits = sum(skewed.sample(rng_skewed) == head
                      for _ in range(2000))
    assert skewed_hits > flat_hits * 2


# ---------------------------------------------------------------------------
# arrivals
# ---------------------------------------------------------------------------
def test_arrival_kinds_construct_and_stay_in_duration():
    for kind in ("poisson", "diurnal", "flash"):
        process = make_arrivals(kind, 2.0)
        times = list(process.times(random.Random(3), 50.0))
        assert times == sorted(times)
        assert all(0.0 <= time < 50.0 for time in times)
        assert times  # rate 2/s over 50s: silence would be a bug


def test_poisson_rate_is_respected():
    times = list(PoissonArrivals(5.0).times(random.Random(11), 400.0))
    assert len(times) == pytest.approx(2000, rel=0.1)


def test_flash_crowd_concentrates_arrivals():
    process = FlashCrowdArrivals(1.0, at=100.0, burst=50.0,
                                 multiplier=10.0)
    times = list(process.times(random.Random(5), 400.0))
    in_burst = sum(100.0 <= time < 150.0 for time in times)
    # The 50s burst window at 10x rate should hold the majority of a
    # 400s run's arrivals (expected 500 of ~850).
    assert in_burst > len(times) * 0.4


def test_diurnal_intensity_oscillates():
    process = DiurnalArrivals(1.0, amplitude=0.5, period=200.0)
    assert process.intensity(50.0) == pytest.approx(1.5)
    assert process.intensity(150.0) == pytest.approx(0.5)
    assert process.peak() == pytest.approx(1.5)


def test_zero_rate_yields_no_arrivals():
    assert list(PoissonArrivals(0.0).times(random.Random(1), 10.0)) == []


# ---------------------------------------------------------------------------
# generator determinism
# ---------------------------------------------------------------------------
def test_stream_is_deterministic_and_ordered():
    first = list(OpenLoopWorkload(_spec(), VPS).events())
    second = list(OpenLoopWorkload(_spec(), VPS).events())
    assert first == second
    keys = [event.sort_key() for event in first]
    assert keys == sorted(keys)
    assert all(0.0 <= event.time < 300.0 for event in first)


def test_shard_filters_partition_the_serial_stream():
    serial = list(OpenLoopWorkload(_spec(), VPS).events())
    for shard_count in (2, 3, 4):
        parts = [VPS[index::shard_count] for index in range(shard_count)]
        shard_streams = [
            list(OpenLoopWorkload(_spec(), VPS).events_for(part))
            for part in parts]
        # Disjoint, exhaustive, and each in serial order.
        assert sum(len(stream) for stream in shard_streams) == len(serial)
        merged = sorted((event for stream in shard_streams
                         for event in stream),
                        key=lambda event: event.sort_key())
        assert merged == serial


def test_different_seeds_differ():
    first = list(OpenLoopWorkload(_spec(seed=1), VPS).events())
    second = list(OpenLoopWorkload(_spec(seed=2), VPS).events())
    assert first != second


def test_sessions_stay_on_one_vp_and_one_service():
    spec = _spec(services=("google-like", "bing-akamai"),
                 queries_per_session=4.0)
    by_session = {}
    for event in OpenLoopWorkload(spec, VPS).events():
        by_session.setdefault(event.session_id, []).append(event)
    multi = 0
    for events in by_session.values():
        assert len({event.vp_name for event in events}) == 1
        assert len({event.user for event in events}) == 1
        assert len({event.service for event in events}) == 1
        indices = [event.query_index for event in events]
        assert sorted(indices) == list(range(len(events)))
        multi += len(events) > 1
    assert multi > 0  # think-time tails actually happen


def test_max_events_caps_the_global_stream():
    spec = _spec(max_events=25)
    assert len(list(OpenLoopWorkload(spec, VPS).events())) == 25
    shards = [list(OpenLoopWorkload(spec, VPS).events_for(VPS[0::2])),
              list(OpenLoopWorkload(spec, VPS).events_for(VPS[1::2]))]
    # The cap applies before filtering: shard streams partition the
    # capped serial stream, never re-extend it.
    assert sum(len(stream) for stream in shards) == 25


def test_spec_validation():
    with pytest.raises(ValueError):
        _spec(users=0)
    with pytest.raises(ValueError):
        _spec(arrivals="bursty")
    with pytest.raises(ValueError):
        _spec(queries_per_session=0.5)
    with pytest.raises(ValueError):
        _spec(services=())
    with pytest.raises(ValueError):
        OpenLoopWorkload(_spec(), [])


# ---------------------------------------------------------------------------
# JSONL traces
# ---------------------------------------------------------------------------
def test_trace_round_trip_is_exact(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    workload = OpenLoopWorkload(_spec(max_events=40), VPS)
    original = list(workload.events())
    assert write_events(path, original) == 40
    replayed = list(read_events(path))
    assert replayed == original  # bit-exact times included

    trace = TraceWorkload(path)
    assert trace.services == ("google-like",)
    assert list(trace.events()) == original
    subset = [event for event in original if event.vp_name == VPS[0]]
    assert list(trace.events_for([VPS[0]])) == subset


def test_trace_rejects_malformed_lines(tmp_path):
    path = str(tmp_path / "bad.jsonl")
    with open(path, "w") as handle:
        handle.write("not json\n")
    with pytest.raises(TraceFormatError):
        list(read_events(path))
    with open(path, "w") as handle:
        handle.write('{"v": 99}\n')
    with pytest.raises(TraceFormatError):
        list(read_events(path))


@pytest.mark.parametrize("bad", ["[1, 2]", '"event"', '{"v": 1}',
                                 '{"v": 1, "time": 1.0, "keyword": []}'])
def test_trace_names_the_line_of_an_undecodable_record(tmp_path, bad):
    path = str(tmp_path / "bad.jsonl")
    write_events(path, OpenLoopWorkload(_spec(max_events=3),
                                        VPS).events())
    with open(path, "a") as handle:
        handle.write("\n" + bad + "\n")
    with pytest.raises(TraceFormatError, match=r"^line 5: "):
        list(read_events(path))


# ---------------------------------------------------------------------------
# the workload CLI
# ---------------------------------------------------------------------------
#: (flags, the two flags the message must name); paths are filled in.
CONTRADICTIONS = [
    (["--trace-in", "{missing}", "--trace-out", "{out}"],
     ("--trace-in", "--trace-out")),
    (["--sweep-alpha", "1.0", "--trace-in", "{missing}"],
     ("--sweep-alpha", "--trace-in")),
    (["--sweep-alpha", "1.0", "--trace-out", "{out}"],
     ("--sweep-alpha", "--trace-out")),
    (["--sweep-alpha", "1.0", "--summary", "{out}"],
     ("--sweep-alpha", "--summary")),
    (["--sweep-alpha", "1.0", "--shards", "2", "--verify-serial"],
     ("--sweep-alpha", "--verify-serial")),
    (["--trace-out", "{out}", "--shards", "2", "--verify-serial"],
     ("--trace-out", "--verify-serial")),
    (["--trace-out", "{out}", "--summary", "{summary}"],
     ("--trace-out", "--summary")),
    (["--verify-serial"], ("--verify-serial", "--shards")),
    (["--shards", "1", "--verify-serial"], ("--verify-serial", "--shards")),
]


@pytest.mark.parametrize("flags,named", CONTRADICTIONS,
                         ids=[" ".join(flags) for flags, _ in CONTRADICTIONS])
def test_cli_rejects_contradictory_flags(tmp_path, capsys, flags, named):
    paths = {name: str(tmp_path / ("%s.jsonl" % name))
             for name in ("missing", "out", "summary")}
    argv = [flag.format(**paths) for flag in flags] + \
        ["--vps", "2", "--events", "5"]
    assert workload_cli.main(argv) == 2
    captured = capsys.readouterr()
    assert all(flag in captured.err for flag in named), captured.err
    assert captured.out == ""
    assert not list(tmp_path.iterdir())  # nothing ran, nothing written
