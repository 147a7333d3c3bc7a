"""Server load / processing-time models.

Two stochastic delay models parameterise the reproduction:

* :class:`FrontEndLoadModel` — per-request processing delay at a
  front-end server.  The paper speculates that Bing's higher and more
  variable ``Tstatic`` stems from Akamai FE servers being *shared* with
  many other customers, while Google's dedicated FEs are lightly loaded
  and stable.  The model is a lognormal: shared CDNs get a larger median
  and a fatter tail.

* :class:`ProcessingModel` — query processing time ``Tproc`` at a
  back-end data center.  Structure:

  ``Tproc = base * (1 + complexity_weight * complexity)
          * (1 - popularity_discount * popularity) * noise``

  where ``noise`` is lognormal with unit median.  Popular queries are
  cheaper (hot result caches deep in the back-end — *not* FE caching,
  which the paper shows does not happen); complex uncorrelated queries
  are costlier.  The paper's Figure 9 intercepts (~34 ms for Google,
  ~260 ms for Bing) anchor the ``base`` values of the two profiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.content.keywords import Keyword
from repro.sim.randomness import RandomStreams


@dataclass(frozen=True)
class FrontEndLoadModel:
    """Lognormal per-request delay at a front-end server.

    ``median_delay`` is in seconds; ``sigma`` is the lognormal shape
    (0 = deterministic); ``floor`` bounds the delay from below.
    ``per_concurrent_delay`` adds processing time for every *other*
    request currently in flight on the same FE — the mechanism behind
    the paper's speculation that shared Akamai FEs show higher and more
    variable Tstatic than Google's dedicated fleet.
    """

    median_delay: float = 0.003
    sigma: float = 0.2
    floor: float = 0.0005
    per_concurrent_delay: float = 0.0

    def __post_init__(self):
        if self.median_delay <= 0:
            raise ValueError("median_delay must be positive")
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")
        if self.per_concurrent_delay < 0:
            raise ValueError("per_concurrent_delay must be >= 0")

    def draw(self, streams: RandomStreams, stream_name: str,
             concurrency: int = 1, key: Optional[str] = None) -> float:
        """Sample one request's FE processing delay.

        ``concurrency`` counts the requests in flight on the FE
        including this one.  With ``key`` (normally the query id) the
        lognormal draw comes from a per-key generator instead of the
        shared sequential stream, making the value independent of the
        order requests arrive in — required for sharded campaign runs
        to match serial ones (see :meth:`RandomStreams.keyed`).
        """
        if self.sigma == 0:
            value = self.median_delay
        elif key is not None:
            keyed = streams.keyed(stream_name, key)
            value = keyed.lognormvariate(math.log(self.median_delay),
                                         self.sigma)
        else:
            value = streams.lognormal(stream_name,
                                      math.log(self.median_delay),
                                      self.sigma)
        value += self.per_concurrent_delay * max(0, concurrency - 1)
        return max(self.floor, value)


@dataclass(frozen=True)
class ProcessingModel:
    """Back-end query processing time model.

    All times in seconds.
    """

    base: float = 0.050
    complexity_weight: float = 1.0
    popularity_discount: float = 0.4
    sigma: float = 0.2
    floor: float = 0.002

    def __post_init__(self):
        if self.base <= 0:
            raise ValueError("base must be positive")
        if not 0.0 <= self.popularity_discount < 1.0:
            raise ValueError("popularity_discount must be in [0,1)")
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")

    def mean_for(self, keyword: Keyword) -> float:
        """Deterministic component of Tproc for a keyword."""
        scale = (1.0 + self.complexity_weight * keyword.complexity)
        scale *= (1.0 - self.popularity_discount * keyword.popularity)
        return self.base * scale

    def draw(self, keyword: Keyword, streams: RandomStreams,
             stream_name: str, key: Optional[str] = None) -> float:
        """Sample Tproc for one query execution.

        ``key`` (normally the query id) switches the noise draw to a
        per-key generator so the sampled value does not depend on the
        arrival order of other queries anywhere in the service — the
        ``tproc`` stream is shared by every back-end of a service, so
        without a key any change in global query interleaving would
        perturb every later draw (see :meth:`RandomStreams.keyed`).
        """
        mean = self.mean_for(keyword)
        if self.sigma == 0:
            return max(self.floor, mean)
        if key is not None:
            keyed = streams.keyed(stream_name, key)
            noise = keyed.lognormvariate(0.0, self.sigma)
        else:
            noise = streams.lognormal(stream_name, 0.0, self.sigma)
        return max(self.floor, mean * noise)
