"""Residential (non-PlanetLab) vantage points.

The IMC reviewers' main methodological critique (summary review,
reviewer #5): PlanetLab nodes sit in campus networks next to Akamai
clusters, so the measured RTTs — "a latency of 20 ms even to Akamai is
really low" — under-represent real users; DSL interleaving alone adds
~30 ms (Maier et al., IMC 2009), and mobile users see more.

This module provides access profiles and a vantage-point generator
for them (:func:`vantage_points_with_profile`) so the reproduction can
quantify that critique:

* :data:`RESIDENTIAL_DSL` — DSL-like access: 15-40 ms last-mile delay,
  mild loss, moderate peering penalty;
* :data:`MOBILE_3G` — 3G-like access: 40-120 ms last-mile delay and
  noticeable loss.

Access loss rates are carried on the vantage point (via the
``access_loss_rate`` metadata) and applied by
:func:`scenario_with_access_profile` when links are built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.sim import units
from repro.sim.randomness import RandomStreams
from repro.testbed.scenario import Scenario, ScenarioConfig
from repro.testbed.vantage import VantagePoint, generate_vantage_points


@dataclass(frozen=True)
class AccessProfile:
    """Last-mile characteristics of a vantage-point population."""

    name: str
    access_delay_range_ms: tuple = (1.0, 4.0)
    peering_penalty_range_ms: tuple = (3.0, 10.0)
    loss_rate: float = 0.0
    bandwidth: float = units.mbps(100)


#: The paper's own population: campus hosts with fast wired access.
CAMPUS = AccessProfile(name="campus")

#: DSL homes: interleaving + serialization on slow uplinks (the
#: reviewers' Maier et al. reference).
RESIDENTIAL_DSL = AccessProfile(
    name="residential-dsl",
    access_delay_range_ms=(15.0, 40.0),
    peering_penalty_range_ms=(5.0, 15.0),
    loss_rate=0.001,
    bandwidth=units.mbps(8))

#: 3G-era mobile access: high and variable latency, visible loss.
MOBILE_3G = AccessProfile(
    name="mobile-3g",
    access_delay_range_ms=(40.0, 120.0),
    peering_penalty_range_ms=(10.0, 25.0),
    loss_rate=0.01,
    bandwidth=units.mbps(2))


def vantage_points_with_profile(count: int, profile: AccessProfile, *,
                                streams: RandomStreams
                                ) -> List[VantagePoint]:
    """Generate vantage points whose last mile follows ``profile``."""
    base = generate_vantage_points(count, streams=streams)
    rng = streams.get("access-profile/%s" % profile.name)
    out = []
    for vp in base:
        out.append(VantagePoint(
            name=vp.name.replace("planetlab", profile.name),
            metro=vp.metro,
            location=vp.location,
            access_delay=units.ms(rng.uniform(
                *profile.access_delay_range_ms)),
            peering_penalty=units.ms(rng.uniform(
                *profile.peering_penalty_range_ms))))
    return out


def scenario_with_access_profile(profile: AccessProfile, *,
                                 seed: int = 0,
                                 vantage_count: int = 60) -> Scenario:
    """A standard two-service scenario whose fleet uses ``profile``.

    The scenario's client links carry the profile's loss rate and
    bandwidth; the vantage points carry its delays.
    """
    scenario = Scenario(ScenarioConfig(
        seed=seed, vantage_count=vantage_count,
        client_bandwidth=profile.bandwidth,
        client_loss_rate=profile.loss_rate))
    replacement = vantage_points_with_profile(
        vantage_count, profile, streams=scenario.streams.spawn("fleet"))
    # Swap the fleet: drop the generated campus nodes, add the new ones.
    scenario.vantage_points.clear()
    scenario._client_hosts.clear()
    for vp in replacement:
        scenario.add_vantage_point(vp)
    return scenario
