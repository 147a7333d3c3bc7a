"""Deterministic, named random-number streams.

Reproducibility is a first-class requirement: every stochastic decision in
the simulator (link loss, back-end processing jitter, FE load, vantage-point
placement) draws from a *named* stream derived from a single experiment
seed.  Adding a new consumer of randomness therefore never perturbs the
draws seen by existing consumers — a property plain shared
``random.Random`` does not have.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a child seed from ``root_seed`` and a stream ``name``.

    Uses SHA-256 so the mapping is stable across Python versions and
    platforms (unlike ``hash()``, which is salted per process).
    """
    digest = hashlib.sha256(("%d/%s" % (root_seed, name)).encode("utf-8"))
    return int.from_bytes(digest.digest()[:8], "big")


class RandomStreams:
    """A registry of independent named :class:`random.Random` streams.

    >>> streams = RandomStreams(seed=7)
    >>> a = streams.get("loss")
    >>> b = streams.get("loss")
    >>> a is b
    True
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: Dict[str, random.Random] = {}
        #: Count of draw events made through this registry's helpers:
        #: one per variate drawn from a shared stream with
        #: :meth:`lognormal`, and one per :meth:`keyed` generator created
        #: (each keyed generator backs exactly one logical draw).  Draws
        #: made on a generator obtained via :meth:`get` — a link's loss
        #: and jitter draws among them — are not counted: the counter
        #: tracks the registry API, which is what the session-replay
        #: cache's determinism contract is stated over (see
        #: ``repro.sim.replay``).
        self.draws_consumed = 0

    def get(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use."""
        stream = self._streams.get(name)
        if stream is None:
            stream = random.Random(derive_seed(self.seed, name))
            self._streams[name] = stream
        return stream

    def keyed(self, name: str, key: str) -> random.Random:
        """A fresh, deterministic RNG for one (stream, key) pair.

        Unlike :meth:`get`, the returned generator is *not* shared or
        cached: every call with the same ``(name, key)`` yields an
        identical, freshly-seeded :class:`random.Random`.  Draws made
        through it therefore depend only on the root seed and the key —
        never on how many draws other consumers of the stream have made
        before.  This order-independence is what lets sharded campaign
        runs (see :mod:`repro.parallel`) reproduce the serial run's
        values bit-for-bit: a per-query key gives every query the same
        draws no matter which process executes it or in which order
        queries arrive.
        """
        self.draws_consumed += 1
        return random.Random(derive_seed(self.seed, name + "#" + key))

    def spawn(self, name: str) -> "RandomStreams":
        """Create a child registry whose root seed depends on ``name``.

        Used to give each experiment repetition its own universe of
        streams while staying reproducible from the top-level seed.
        """
        return RandomStreams(derive_seed(self.seed, "spawn/" + name))

    def lognormal(self, name: str, mu: float, sigma: float) -> float:
        """Draw from a lognormal; ``mu``/``sigma`` are of the underlying normal."""
        self.draws_consumed += 1
        return self.get(name).lognormvariate(mu, sigma)
