"""Discrete-event simulation substrate.

Public surface:

* :class:`~repro.sim.engine.Simulator` — the event loop.
* :class:`~repro.sim.randomness.RandomStreams` — named deterministic RNG.
* :mod:`~repro.sim.units` — unit conversions and physical constants.
* :class:`~repro.sim.executor.SessionExecutor` — per-campaign session
  execution behind the replay-cache and analytic fast paths.
"""

from repro.sim.engine import EventHandle, SchedulingError, SimulationError, Simulator
from repro.sim.randomness import RandomStreams, derive_seed

__all__ = [
    "EventHandle",
    "RandomStreams",
    "SchedulingError",
    "SimulationError",
    "Simulator",
    "derive_seed",
]
