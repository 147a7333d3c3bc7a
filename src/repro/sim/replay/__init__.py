"""Deterministic session-replay cache.

A Dataset-A/B campaign re-simulates thousands of query sessions whose
packet timelines are pure functions of a small parameter tuple: the
client-FE path, the TCP configs, the static/dynamic byte sizes, and the
per-query keyed service draws.  This package memoizes those timelines.
On a cache hit the driver skips the packet-level simulation entirely
and *replays* the recorded timeline time-shifted to the new start —
producing bit-identical :class:`~repro.measure.capture.PacketEvent`
records, session landmarks, and ground-truth logs.

Correctness rests on three pillars (see ``docs/PERFORMANCE.md``):

* **Strict admission** (:mod:`repro.sim.replay.admission`): a session is
  only recorded/replayed when its timeline provably cannot depend on
  anything outside the cache key — no loss, jitter, or fault injection
  on its path links, no cross-traffic on its front-end during the
  session window, keyed (order-independent) service draws, and a start
  time whose binade the whole session window fits in (so the float
  time-shift is exact).
* **Validation on first reuse** (:mod:`repro.sim.replay.manager`): the
  first time a key recurs the session is simulated anyway and compared
  bit-for-bit against the shifted recording; only after that match do
  subsequent occurrences replay without simulating.
* **Side-effect replication**: a replayed session goes through
  :meth:`repro.sim.executor.SessionExecutor.materialize`, which burns
  the same ephemeral port, writes the same fetch/query ground-truth
  records, and injects the same capture events the full simulation
  would have produced.
"""

from repro.sim.replay.cache import ReplayCache
from repro.sim.replay.manager import (
    SessionReplayManager,
    replay_cache_enabled,
)
from repro.sim.stats import ReplayStats

__all__ = [
    "ReplayCache",
    "ReplayStats",
    "SessionReplayManager",
    "replay_cache_enabled",
]
