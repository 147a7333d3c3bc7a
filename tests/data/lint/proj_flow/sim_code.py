"""Wall-clock values reaching the event queue and seeds.

Every flow here starts at ``helpers.now``, where DET001 fires.
"""

from helpers import jittered, now


def schedule_backoff(sim, cb):
    delay = jittered(0.5)
    sim.schedule(delay, cb)


def schedule_direct(sim, cb):
    sim.call_at(now(), cb)


def schedule_clean(sim, cb):
    sim.schedule(0.25, cb)


def reseed(rng):
    rng.seed(now())


def make_streams(streams_cls):
    return streams_cls(seed=now())


def run_with_seed(sim, base_seed):
    return base_seed * 2


def forward_clock(sim):
    # Carries the clock into run_with_seed's base_seed at a distance.
    return run_with_seed(sim, jittered(1.0))
