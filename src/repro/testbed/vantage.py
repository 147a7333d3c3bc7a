"""PlanetLab-style vantage points.

Each :class:`VantagePoint` is a measurement host in a campus network:
it lives in (a small offset from) a metro, and has a last-mile access
delay and a *peering penalty* — extra one-way delay incurred when its
traffic must leave the metro to reach a server elsewhere (IXP detours,
regional transit).  The peering penalty is what keeps nearest-FE RTTs
realistic when the FE is one metro over.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.net.geo import GeoPoint
from repro.sim import units
from repro.sim.randomness import RandomStreams
from repro.testbed.sites import METROS, REGION_WEIGHTS, Metro


@dataclass(frozen=True)
class VantagePoint:
    """One measurement node.

    Attributes
    ----------
    name:
        Host name, e.g. ``"planetlab-017-minneapolis"``.
    metro:
        The metro hosting the node.
    location:
        Node coordinates (metro center plus a campus-scale offset).
    access_delay:
        One-way last-mile delay in seconds (campus + regional network).
    peering_penalty:
        Extra one-way delay in seconds applied when the remote endpoint
        is outside this node's metro.
    """

    name: str
    metro: Metro
    location: GeoPoint
    access_delay: float
    peering_penalty: float

    def one_way_delay_to(self, remote_location: GeoPoint,
                         remote_metro_name: Optional[str] = None,
                         route_inflation: float = 1.6) -> float:
        """One-way network delay from this node to a server.

        Propagation from geographic distance, plus access delay, plus the
        peering penalty when the server is in a different metro.
        """
        delay = self.location.one_way_delay(remote_location,
                                            route_inflation)
        delay += self.access_delay
        if remote_metro_name != self.metro.name:
            delay += self.peering_penalty
        return delay


def generate_vantage_points(count: int, *,
                            seed: int = 0,
                            metros: Sequence[Metro] = METROS,
                            streams: Optional[RandomStreams] = None
                            ) -> List[VantagePoint]:
    """Generate ``count`` vantage points with PlanetLab-like geography.

    Nodes are assigned to metros with the region mixture of
    :data:`~repro.testbed.sites.REGION_WEIGHTS`; several nodes may share
    a metro (PlanetLab sites typically hosted 2-4 nodes).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    streams = streams or RandomStreams(seed)
    # Shard-safe despite the shared stream: placement happens once per
    # worker inside Scenario.__init__, before any shard-variant work,
    # so every shard draws the identical sequence (locked in by the
    # serial-vs-sharded fingerprint tests).
    rng = streams.get("vantage-placement")
    by_region = {}
    for metro in metros:
        by_region.setdefault(metro.region, []).append(metro)
    regions = sorted(by_region)
    weights = [REGION_WEIGHTS.get(region, 0.05) for region in regions]

    points = []
    for index in range(count):
        region = rng.choices(regions, weights=weights)[0]
        metro = rng.choice(by_region[region])
        # Campus-scale offset: up to ~0.1 degrees (~7 miles).
        location = GeoPoint(
            max(-90.0, min(90.0, metro.location.lat
                           + rng.uniform(-0.1, 0.1))),
            max(-180.0, min(180.0, metro.location.lon
                            + rng.uniform(-0.1, 0.1))))
        points.append(VantagePoint(
            name="planetlab-%03d-%s" % (index, metro.name),
            metro=metro,
            location=location,
            access_delay=units.ms(rng.uniform(1.0, 4.0)),
            peering_penalty=units.ms(rng.uniform(3.0, 10.0))))
    return points
