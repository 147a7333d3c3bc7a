"""Open-loop workload generation: the million-user side of the study.

The paper measures with a few hundred closed-loop vantage points; the
ROADMAP north star is front-ends serving "heavy traffic from millions
of users".  This package supplies that traffic as *lazy, deterministic*
event streams:

* :class:`~repro.workload.generator.WorkloadSpec` /
  :class:`~repro.workload.generator.OpenLoopWorkload` — the generator:
  Zipf keyword popularity over the content universe, Poisson / diurnal
  / flash-crowd session arrivals, per-user session models (think time,
  queries per session);
* :mod:`repro.workload.trace` — JSONL record/replay of any stream.

Every draw is seeded through :func:`repro.sim.randomness.derive_seed`,
so serial and sharded runs generate bit-identical streams; the
streaming campaign runner (:mod:`repro.measure.streaming`) consumes
them in bounded memory.
"""

from repro.workload.arrivals import (
    DiurnalArrivals,
    FlashCrowdArrivals,
    PoissonArrivals,
    make_arrivals,
)
from repro.workload.generator import OpenLoopWorkload, WorkloadSpec
from repro.workload.popularity import ZipfPopularity, zipf_universe
from repro.workload.trace import (
    TraceFormatError,
    TraceWorkload,
    read_events,
    write_events,
)

__all__ = [
    "DiurnalArrivals",
    "FlashCrowdArrivals",
    "OpenLoopWorkload",
    "PoissonArrivals",
    "TraceFormatError",
    "TraceWorkload",
    "WorkloadSpec",
    "ZipfPopularity",
    "make_arrivals",
    "read_events",
    "write_events",
    "zipf_universe",
]
