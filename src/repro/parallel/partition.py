"""Vantage-point partitioning for sharded campaigns.

The validity argument for running a campaign's vantage points in
separate simulators is that VPs interact *only* through shared
front-end servers: an FE's load model adds delay per concurrent
request, its pool of warm back-end connections is picked by queue
depth, and its FE-BE link owns the sequential jitter/loss RNG streams.
Two VPs that never touch the same FE exchange no packets, share no
queues, and (with keyed per-query draws, see
:meth:`~repro.sim.randomness.RandomStreams.keyed`) consume no common
RNG stream.

:func:`fe_sharing_components` therefore groups VPs into the connected
components of the "shares a default FE (of any service)" graph; a shard
made of whole components reproduces every interaction of the serial
run exactly.  A campaign that aims *all* VPs at one fixed FE (Dataset
B) is a single component and runs serially.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.testbed.scenario import Scenario
from repro.testbed.vantage import VantagePoint


def fe_sharing_components(scenario: Scenario,
                          services: Optional[Sequence[str]] = None,
                          vps: Optional[Sequence[VantagePoint]] = None
                          ) -> List[List[VantagePoint]]:
    """Group ``vps`` into components sharing any default front-end.

    Components (and the VPs inside them) come back in fleet order, so
    the grouping is deterministic for a fixed scenario config.
    """
    services = list(services or scenario.services)
    vps = list(vps if vps is not None else scenario.vantage_points)
    parent: Dict[str, str] = {vp.name: vp.name for vp in vps}

    def find(name: str) -> str:
        while parent[name] != name:
            parent[name] = parent[parent[name]]
            name = parent[name]
        return name

    owner_by_fe: Dict[str, str] = {}
    for vp in vps:
        for service_name in services:
            fe_name = scenario.default_frontend(service_name, vp).node.name
            owner = owner_by_fe.setdefault(fe_name, vp.name)
            root_a, root_b = find(owner), find(vp.name)
            if root_a != root_b:
                parent[root_b] = root_a

    grouped: Dict[str, List[VantagePoint]] = {}
    for vp in vps:
        grouped.setdefault(find(vp.name), []).append(vp)
    # Fleet order of each component's first member fixes the order.
    return list(grouped.values())


def partition_components(components: Sequence[List[VantagePoint]],
                         shard_count: int) -> List[List[VantagePoint]]:
    """Pack whole components into at most ``shard_count`` shards.

    Greedy balanced binning: biggest component first, always into the
    currently lightest shard (ties to the lowest shard index), so the
    result depends only on the component list.  Empty shards are
    dropped.
    """
    if shard_count < 1:
        raise ValueError("shard_count must be >= 1")
    shards: List[List[VantagePoint]] = [[] for _ in range(shard_count)]
    order = sorted(range(len(components)),
                   key=lambda index: (-len(components[index]), index))
    for index in order:
        target = min(range(shard_count), key=lambda s: (len(shards[s]), s))
        shards[target].extend(components[index])
    return [shard for shard in shards if shard]

