"""Discrete-event simulation substrate.

Public surface:

* :class:`~repro.sim.engine.Simulator` — the event loop.
* :class:`~repro.sim.randomness.RandomStreams` — named deterministic RNG.
* :class:`~repro.sim.timeline.Timeline` — timestamped record log.
* :func:`~repro.sim.process.spawn` and friends — coroutine-style drivers.
* :mod:`~repro.sim.units` — unit conversions and physical constants.
* :class:`~repro.sim.executor.SessionExecutor` — per-campaign session
  execution behind the replay-cache and analytic fast paths.
"""

from repro.sim.engine import EventHandle, SchedulingError, SimulationError, Simulator
from repro.sim.process import Process, ProcessFailure, Signal, Sleep, WaitEvent, spawn
from repro.sim.randomness import RandomStreams, derive_seed
from repro.sim.timeline import Record, Timeline

__all__ = [
    "EventHandle",
    "Process",
    "ProcessFailure",
    "Record",
    "RandomStreams",
    "SchedulingError",
    "Signal",
    "SimulationError",
    "Simulator",
    "Sleep",
    "Timeline",
    "WaitEvent",
    "derive_seed",
    "spawn",
]
