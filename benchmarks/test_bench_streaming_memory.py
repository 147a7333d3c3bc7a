"""Peak-memory flatness of the streaming campaign runner.

The load-bearing claim of :mod:`repro.measure.streaming` is that peak
memory is set by the number of sessions *in flight* (arrival rate x
session length), not by how many events the campaign processes.  This
benchmark runs the same Zipf+Poisson workload at 10k and 100k events —
with the duration scaled so the in-flight population stays constant —
and asserts the traced Python heap peak stays flat.

This file is intentionally separate from ``test_bench_microperf.py``
(which CI runs on every push): the 100k-event leg takes minutes under
``tracemalloc``.  Run it explicitly::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_streaming_memory.py -q

``REPRO_BENCH_STREAM_EVENTS`` scales the large leg down (e.g. ``20000``)
for a quick local check; the recorded reference numbers are in
``docs/PERFORMANCE.md``.
"""

import os
import tracemalloc

from repro.measure.streaming import run_streaming_campaign
from repro.testbed.scenario import Scenario, ScenarioConfig
from repro.workload import OpenLoopWorkload, WorkloadSpec

CONFIG = ScenarioConfig(seed=7, vantage_count=12,
                        keyed_service_draws=True,
                        deterministic_services=True)

#: Aggregate session arrival rate; duration scales as events/RATE/QPS
#: so the expected in-flight population is event-count-independent.
RATE = 2.0

SMALL_EVENTS = 10_000
LARGE_EVENTS = int(os.environ.get("REPRO_BENCH_STREAM_EVENTS", 100_000))

#: Allowed peak-heap growth for 10x the events.  Measured ratio on the
#: reference host: 1.22 (52.4 MB -> 63.8 MB); see docs/PERFORMANCE.md.
FLATNESS_BOUND = 1.6


def _traced_peak(events: int):
    """(result, peak_heap_bytes) for an `events`-long streaming run."""
    scenario = Scenario(CONFIG)
    spec = WorkloadSpec(seed=7, users=500, duration=events / (2 * RATE),
                        session_rate=RATE, keyword_count=128,
                        max_events=events,
                        services=(Scenario.GOOGLE,))
    workload = OpenLoopWorkload(
        spec, [vp.name for vp in scenario.vantage_points])
    tracemalloc.start()
    try:
        result = run_streaming_campaign(scenario, workload,
                                        tier="analytic")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_streaming_peak_memory_is_flat_in_event_count():
    small_result, small_peak = _traced_peak(SMALL_EVENTS)
    large_result, large_peak = _traced_peak(LARGE_EVENTS)

    assert small_result.events == SMALL_EVENTS
    assert large_result.events == LARGE_EVENTS
    assert small_result.sessions + small_result.truncated \
        >= SMALL_EVENTS * 0.9
    assert large_result.failures == 0

    ratio = large_peak / small_peak
    print("peak heap: %d events -> %.1f MB, %d events -> %.1f MB "
          "(ratio %.3f)" % (SMALL_EVENTS, small_peak / 1e6,
                            LARGE_EVENTS, large_peak / 1e6, ratio))
    assert ratio < FLATNESS_BOUND, (
        "peak heap grew %.2fx for %dx the events — the streaming "
        "runner is retaining per-event state"
        % (ratio, LARGE_EVENTS // SMALL_EVENTS))
