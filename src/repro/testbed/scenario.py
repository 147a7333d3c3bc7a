"""Measurement scenario assembly.

A :class:`Scenario` is the complete simulated universe of the paper's
study: two service deployments (google-like and bing-akamai-like), a
fleet of PlanetLab-style vantage points, and the plumbing to wire a
vantage point to any front-end server with a geography-derived link.

Links between clients and FEs are created lazily (a 250-node testbed
against ~80 FE sites would otherwise mean ~20,000 mostly unused links),
and are deterministic: re-requesting the same pair is a no-op.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.cache import CacheHierarchySpec
from repro.net.topology import Topology
from repro.services.deployment import (
    ServiceDeployment,
    ServiceProfile,
    bing_akamai_profile,
    google_like_profile,
)
from repro.services.frontend import FrontEndServer
from repro.sim import units
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.tcp.config import TcpConfig
from repro.tcp.host import TcpHost
from repro.testbed import sites
from repro.testbed.vantage import VantagePoint, generate_vantage_points

if TYPE_CHECKING:
    from repro.measure.capture import PacketCapture


class LazyServiceMap:
    """Mapping of service name -> deployment, constructed on first use.

    Building a deployment is the expensive part of scenario assembly
    (every FE opens its persistent connection pool to its back-end, and
    those handshakes are simulated packet-by-packet at t=0), so it is
    deferred until the service is actually touched: a campaign over one
    service never pays for the other's fleet.  Names, iteration order
    and membership are available without construction; ``items()`` and
    ``values()`` force every deployment, in registration order, so bulk
    consumers see exactly the eager behavior.

    Laziness is observation-equivalent because deployment construction
    draws no shared randomness (all streams are name-keyed) and a
    service's simulated events are confined to its own nodes and links.
    Deployments must be first touched while the clock is still at the
    time origin (drivers do this during setup); the pool handshakes
    then run at t=0 exactly as they would have eagerly.
    """

    def __init__(self):
        self._factories: Dict[str, object] = {}
        self._built: Dict[str, ServiceDeployment] = {}

    def register(self, name: str, factory) -> None:
        self._factories[name] = factory

    def __getitem__(self, name: str) -> ServiceDeployment:
        deployment = self._built.get(name)
        if deployment is None:
            try:
                factory = self._factories[name]
            except KeyError:
                raise KeyError(name) from None
            deployment = factory()
            self._built[name] = deployment
        return deployment

    def __iter__(self):
        return iter(self._factories)

    def __len__(self) -> int:
        return len(self._factories)

    def __contains__(self, name) -> bool:
        return name in self._factories

    def values(self):
        return [self[name] for name in self._factories]


@dataclass(frozen=True)
class ScenarioConfig:
    """Knobs of a measurement scenario."""

    seed: int = 0
    vantage_count: int = 240
    client_bandwidth: float = units.mbps(100)
    client_loss_rate: float = 0.0
    akamai_coverage: float = 0.75
    cache_static: bool = True
    #: TCP config for vantage-point stacks.
    client_tcp: TcpConfig = TcpConfig()
    #: The front-end cache complement (see :mod:`repro.cache`).  The
    #: default — an infinite always-hit static cache, no regional tier,
    #: an unbounded result cache — is the paper's black-box assumption
    #: and keeps campaign outputs bit-identical to the plain
    #: ``cache_static`` boolean.  Finite specs make static misses real
    #: (full-page back-end fetches) and are rejected by sharding modes
    #: that would split one cache's request stream across workers.
    fe_cache: CacheHierarchySpec = CacheHierarchySpec()
    #: When True, FE load and BE processing delays are drawn from
    #: per-query generators (keyed by query id) instead of shared
    #: sequential streams.  The marginal distributions are identical but
    #: the realizations differ; per-query draws do not depend on the
    #: global arrival order, which is what lets sharded campaign runs
    #: reproduce serial ones bit-for-bit (see ``repro.parallel``).
    keyed_service_draws: bool = False
    #: When True, the service profiles are made noise-free: FE load and
    #: BE processing sigmas drop to 0 and the FE-BE paths lose their
    #: loss/jitter.  Useful for performance work — in particular it is
    #: the mode where the session-replay cache (``repro.sim.replay``)
    #: gets hits, since every repeated (VP, FE, keyword) submission then
    #: shares one deterministic timeline.  Marginal delay values shift
    #: to the profile medians, so results are *not* comparable to the
    #: stochastic defaults.
    deterministic_services: bool = False


def deterministic_profile(profile: ServiceProfile) -> ServiceProfile:
    """Strip every stochastic element from a service profile.

    Load and processing delays collapse to their deterministic
    components (sigma=0) and the FE-BE path loses loss and jitter; all
    structural parameters (sizes, bandwidths, pools, TCP configs) are
    untouched.
    """
    return replace(
        profile,
        processing=replace(profile.processing, sigma=0.0),
        fe_load=replace(profile.fe_load, sigma=0.0),
        fe_be_loss=0.0,
        fe_be_jitter=0.0)


def scenario_profiles(config: ScenarioConfig) -> Dict[str, ServiceProfile]:
    """The service profiles a config-built :class:`Scenario` will use.

    Shared with :mod:`repro.parallel.campaigns`, whose shardability
    check must accept exactly the profiles a worker process rebuilding
    the scenario from this config would construct.
    """
    profiles = [google_like_profile(), bing_akamai_profile()]
    if config.deterministic_services:
        profiles = [deterministic_profile(p) for p in profiles]
    return {p.name: p for p in profiles}


class Scenario:
    """The full measurement universe."""

    GOOGLE = "google-like"
    BING = "bing-akamai"

    def __init__(self, config: Optional[ScenarioConfig] = None, *,
                 google_profile: Optional[ServiceProfile] = None,
                 bing_profile: Optional[ServiceProfile] = None):
        self.config = config or ScenarioConfig()
        self.sim = Simulator()
        self.streams = RandomStreams(self.config.seed)
        self.topology = Topology(self.sim, self.streams)

        default_profiles = scenario_profiles(self.config)
        google_profile = google_profile or default_profiles[self.GOOGLE]
        bing_profile = bing_profile or default_profiles[self.BING]
        self.services = LazyServiceMap()
        self.services.register(
            google_profile.name,
            lambda: ServiceDeployment(
                self.sim, self.topology, self.streams, google_profile,
                fe_sites=sites.google_like_fe_sites(),
                be_sites=list(sites.GOOGLE_LIKE_BE_SITES),
                cache_static=self.config.cache_static,
                content_seed=self.config.seed,
                keyed_draws=self.config.keyed_service_draws,
                cache_spec=self.config.fe_cache))
        self.services.register(
            bing_profile.name,
            lambda: ServiceDeployment(
                self.sim, self.topology, self.streams, bing_profile,
                fe_sites=sites.akamai_like_fe_sites(
                    self.config.akamai_coverage),
                be_sites=list(sites.BING_LIKE_BE_SITES),
                cache_static=self.config.cache_static,
                content_seed=self.config.seed + 1,
                keyed_draws=self.config.keyed_service_draws,
                cache_spec=self.config.fe_cache))
        self.vantage_points: List[VantagePoint] = generate_vantage_points(
            self.config.vantage_count, streams=self.streams)
        self._client_hosts: Dict[str, TcpHost] = {}
        self._client_captures: Dict[str, PacketCapture] = {}
        self._links_built: set = set()
        for vp in self.vantage_points:
            self._add_client(vp)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _add_client(self, vp: VantagePoint) -> None:
        """A vantage point's node, its TCP stack and its one capture."""
        # repro.measure sits above this layer and imports this module.
        from repro.measure.capture import PacketCapture

        node = self.topology.add_node(vp.name, vp.location)
        host = TcpHost(self.sim, node, self.config.client_tcp, self.streams)
        self._client_hosts[vp.name] = host
        self._client_captures[vp.name] = PacketCapture(self.sim, host)

    def client_host(self, vp: VantagePoint) -> TcpHost:
        """The TCP stack of a vantage point."""
        return self._client_hosts[vp.name]

    def client_capture(self, vp: VantagePoint) -> PacketCapture:
        """The packet capture on a vantage point's TCP host: one per
        client, shared by every emulator that queries from it."""
        return self._client_captures[vp.name]

    def add_vantage_point(self, vp: VantagePoint) -> VantagePoint:
        """Register an extra (custom-placed) vantage point.

        Experiments that need controlled client placement — e.g. the
        Figure-9 runner puts one client in each probed FE's metro — add
        nodes here instead of relying on the generated fleet.
        """
        if vp.name in self._client_hosts:
            raise ValueError("vantage point %r already exists" % vp.name)
        self._add_client(vp)
        self.vantage_points.append(vp)
        return vp

    def service(self, name: str) -> ServiceDeployment:
        try:
            return self.services[name]
        except KeyError:
            raise KeyError("unknown service %r (have %s)"
                           % (name, sorted(self.services))) from None

    # ------------------------------------------------------------------
    # client-FE wiring
    # ------------------------------------------------------------------
    def link_client_to_frontend(self, vp: VantagePoint,
                                frontend: FrontEndServer,
                                service: ServiceDeployment) -> float:
        """Ensure a link between a vantage point and an FE.

        Returns the one-way delay of the (possibly pre-existing) link.
        The delay combines geographic propagation, the node's access
        delay, and its peering penalty when the FE sits in another metro.
        """
        key = (vp.name, frontend.node.name)
        fe_metro = service.site_of_node.get(frontend.node.name)
        delay = vp.one_way_delay_to(frontend.location, fe_metro)
        if key in self._links_built:
            return delay
        self.topology.connect(vp.name, frontend.node.name,
                              delay=delay,
                              bandwidth=self.config.client_bandwidth,
                              loss_rate=self.config.client_loss_rate)
        self._links_built.add(key)
        return delay

    def client_fe_rtt(self, vp: VantagePoint,
                      frontend: FrontEndServer,
                      service: ServiceDeployment) -> float:
        """Round-trip propagation delay between a client and an FE."""
        fe_metro = service.site_of_node.get(frontend.node.name)
        return 2.0 * vp.one_way_delay_to(frontend.location, fe_metro)

    # ------------------------------------------------------------------
    # DNS-style default FE resolution
    # ------------------------------------------------------------------
    def default_frontend(self, service_name: str,
                         vp: VantagePoint) -> FrontEndServer:
        """The FE a DNS lookup returns for this vantage point.

        Models 2011 DNS-based mapping: the FE with the lowest expected
        RTT from the client's resolver (which shares the client's
        metro).
        """
        service = self.service(service_name)
        if not service.frontends:
            raise RuntimeError("service %r has no front-ends"
                               % service_name)
        return min(service.frontends,
                   key=lambda frontend: self.client_fe_rtt(vp, frontend,
                                                           service))

    def connect_default(self, service_name: str,
                        vp: VantagePoint) -> Tuple[FrontEndServer, float]:
        """Resolve the default FE and ensure the link; returns (fe, rtt)."""
        service = self.service(service_name)
        frontend = self.default_frontend(service_name, vp)
        one_way = self.link_client_to_frontend(vp, frontend, service)
        return frontend, 2.0 * one_way
