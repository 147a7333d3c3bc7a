"""Serial-vs-sharded observability equality (fingerprint style).

Companion to ``tests/test_parallel.py``: with tracing enabled, a
sharded campaign must hand back the *byte-identical* span snapshot the
serial campaign produces, and its sim-scope metrics must merge to the
serial values exactly.  Host-scope metrics (engine events, replay
stats) legitimately differ per shard and are excluded by scope.
"""

import hashlib
import json

import pytest

from repro import obs
from repro.content.keywords import Keyword
from repro.measure.driver import run_dataset_a
from repro.parallel import run_dataset_a_sharded
from repro.testbed.scenario import Scenario, ScenarioConfig

CONFIG = ScenarioConfig(seed=3, vantage_count=14,
                        keyed_service_draws=True)
KEYWORDS = [Keyword(text="obs shard parity", popularity=0.6,
                    complexity=0.4)]


@pytest.fixture(autouse=True)
def _obs_isolation():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def trace_fingerprint(trace):
    """Stable digest of a serialized span snapshot."""
    payload = json.dumps(trace, sort_keys=True,
                         separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def _serial_a():
    obs.reset()
    return run_dataset_a(Scenario(CONFIG), KEYWORDS, repeats=2,
                         interval=5.0)


def _sharded_a(processes):
    obs.reset()
    return run_dataset_a_sharded(Scenario(CONFIG), KEYWORDS, repeats=2,
                                 interval=5.0, shards=3,
                                 processes=processes)


def _assert_obs_parity(serial, sharded):
    assert serial.trace and sharded.trace
    assert trace_fingerprint(serial.trace) == \
        trace_fingerprint(sharded.trace)
    serial_sim = serial.obs_metrics.scoped(obs.SCOPE_SIM)
    sharded_sim = sharded.obs_metrics.scoped(obs.SCOPE_SIM)
    assert serial_sim.counters == sharded_sim.counters
    assert serial_sim.gauges == sharded_sim.gauges
    # Histogram states carry exact Fraction sums: == here means the
    # merge reproduced the serial sums bit for bit, not approximately.
    assert serial_sim.histograms == sharded_sim.histograms


def test_dataset_a_sharded_trace_and_metrics_match_serial():
    obs.enable()
    serial = _serial_a()
    sharded = _sharded_a(processes=3)
    assert [s.query_id for s in sharded.sessions] == \
        [s.query_id for s in serial.sessions]
    _assert_obs_parity(serial, sharded)


def test_dataset_a_inline_fallback_does_not_double_count():
    # processes=1 makes map_shards run the shard campaigns inline in
    # this process; each shard's capture must be absorbed exactly once.
    obs.enable()
    serial = _serial_a()
    inline = _sharded_a(processes=1)
    _assert_obs_parity(serial, inline)
    # The live runtime holds the merged capture exactly once.
    session_spans = [span for span in obs.runtime.tracer.spans
                     if span.name == "session"]
    assert len(session_spans) == len(inline.sessions)


def test_sharded_with_tracing_disabled_stays_dark():
    sharded = _sharded_a(processes=3)
    assert sharded.trace is None
    assert sharded.obs_metrics is None
    assert obs.runtime.tracer.spans == []


def test_host_scope_metrics_count_per_shard_work():
    obs.enable()
    sharded = _sharded_a(processes=3)
    host = sharded.obs_metrics.scoped(obs.SCOPE_HOST)
    # Each of the 3 shards ran its own campaign (warm-up re-simulated),
    # so the per-process campaign counter sums across shards.
    assert host.counters["campaign.runs.dataset_a"] == 3
    assert host.counters["engine.events_processed"] > 0
