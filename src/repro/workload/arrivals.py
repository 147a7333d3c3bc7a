"""Open-loop session arrival processes.

The paper's campaigns are closed-loop (each vantage point waits out a
fixed interval); a population of real users is open-loop — sessions
start by a time-varying arrival process regardless of how earlier ones
fared.  Three processes cover the regimes the streaming runner cares
about:

* :class:`PoissonArrivals` — homogeneous rate, the baseline;
* :class:`DiurnalArrivals` — sinusoidal day/night modulation;
* :class:`FlashCrowdArrivals` — a rate spike over a burst window, the
  "flash crowd" a front-end provisioning story is judged by.

All three generate through *thinning* (Lewis & Shedler): candidate
gaps are exponential at the peak rate and each candidate is accepted
with probability ``rate(t) / peak``.  Every candidate consumes exactly
two draws from the supplied RNG (gap + acceptance), so the start-time
sequence is a pure function of the RNG seed — independent of consumer
timing, which is what lets every shard regenerate the identical
stream (see :mod:`repro.workload.generator`).
"""

from __future__ import annotations

import math
import random
from typing import Iterator

__all__ = [
    "ARRIVAL_KINDS",
    "ArrivalProcess",
    "DiurnalArrivals",
    "FlashCrowdArrivals",
    "PoissonArrivals",
    "make_arrivals",
]

#: CLI-facing names of the available processes.
ARRIVAL_KINDS = ("poisson", "diurnal", "flash")


class ArrivalProcess:
    """Base class: a deterministic nonhomogeneous Poisson process."""

    #: Aggregate base rate over the whole user population.
    rate: float

    def intensity(self, time: float) -> float:
        """Instantaneous arrival rate at ``time`` (sessions/second)."""
        raise NotImplementedError

    def peak(self) -> float:
        """A tight upper bound on :meth:`intensity` (thinning ceiling)."""
        raise NotImplementedError

    def times(self, rng: random.Random,
              duration: float) -> Iterator[float]:
        """Yield session start times in (0, duration), in order.

        Thinning at the peak rate: two RNG draws per candidate, always,
        so the emitted sequence depends only on the RNG state.
        """
        peak = self.peak()
        if peak <= 0.0:
            return
        time = 0.0
        while True:
            time += rng.expovariate(peak)
            if time >= duration:
                return
            if rng.random() * peak < self.intensity(time):
                yield time


class PoissonArrivals(ArrivalProcess):
    """Homogeneous Poisson arrivals at a constant rate."""

    def __init__(self, rate: float):
        if rate < 0.0:
            raise ValueError("rate must be >= 0, got %r" % (rate,))
        self.rate = rate

    def intensity(self, time: float) -> float:
        return self.rate

    def peak(self) -> float:
        return self.rate


class DiurnalArrivals(ArrivalProcess):
    """Sinusoidal day/night modulation around a base rate.

    ``intensity(t) = rate * (1 + amplitude * sin(2*pi*t / period))``;
    ``amplitude`` in [0, 1] keeps the rate non-negative.
    """

    def __init__(self, rate: float, amplitude: float = 0.5,
                 period: float = 86_400.0):
        if rate < 0.0:
            raise ValueError("rate must be >= 0, got %r" % (rate,))
        if not 0.0 <= amplitude <= 1.0:
            raise ValueError("amplitude must be in [0, 1], got %r"
                             % (amplitude,))
        if period <= 0.0:
            raise ValueError("period must be > 0, got %r" % (period,))
        self.rate = rate
        self.amplitude = amplitude
        self.period = period

    def intensity(self, time: float) -> float:
        return self.rate * (1.0 + self.amplitude
                            * math.sin(2.0 * math.pi * time / self.period))

    def peak(self) -> float:
        return self.rate * (1.0 + self.amplitude)


class FlashCrowdArrivals(ArrivalProcess):
    """A flash crowd: baseline rate with a multiplied burst window."""

    def __init__(self, rate: float, at: float = 600.0,
                 burst: float = 120.0,
                 multiplier: float = 8.0):
        if rate < 0.0:
            raise ValueError("rate must be >= 0, got %r" % (rate,))
        if at < 0.0 or burst < 0.0:
            raise ValueError("burst window must be non-negative")
        if multiplier < 1.0:
            raise ValueError("multiplier must be >= 1, got %r"
                             % (multiplier,))
        self.rate = rate
        self.at = at
        self.burst = burst
        self.multiplier = multiplier

    def intensity(self, time: float) -> float:
        if self.at <= time < self.at + self.burst:
            return self.rate * self.multiplier
        return self.rate

    def peak(self) -> float:
        return self.rate * self.multiplier


def make_arrivals(kind: str, rate: float) -> ArrivalProcess:
    """Build the arrival process a :class:`WorkloadSpec` names, with
    the process's own default shape."""
    if kind == "poisson":
        return PoissonArrivals(rate)
    if kind == "diurnal":
        return DiurnalArrivals(rate)
    if kind == "flash":
        return FlashCrowdArrivals(rate)
    raise ValueError("arrivals must be one of %s, got %r"
                     % ("/".join(ARRIVAL_KINDS), kind))
