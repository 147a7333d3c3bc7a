"""Service deployment profiles and assembly.

A :class:`ServiceProfile` captures everything that distinguishes the two
measured services:

* **google-like** — a modest number of FE sites, *dedicated* to search,
  lightly loaded (small, stable FE delay), connected to back-ends over a
  private well-provisioned network (low route inflation, no loss), with
  fast and stable back-end processing;
* **bing-akamai-like** — many FE sites very close to users (Akamai), but
  *shared* with other CDN customers (larger, high-variance FE delay),
  reaching the Bing back-ends over the public Internet (higher route
  inflation, slight loss/jitter), with slower, high-variance back-end
  processing.

The numeric anchors come from the paper: Figure 9's regression intercepts
(~34 ms vs ~260 ms of back-end computation) and slopes (~0.08-0.099
ms/mile of FE-BE distance), Figure 5's Tdelta-extinction thresholds
(50-100 ms for Google vs 100-200 ms for Bing), and Figure 6's RTT CDFs.

:class:`ServiceDeployment` instantiates a profile onto a topology: one
node + HTTP server per FE/BE site, geo-derived FE-BE links, and shared
keyword registry and ground-truth logs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cache import CacheHierarchySpec
from repro.content.page import PageGenerator, PageProfile
from repro.net.geo import GeoPoint, nearest
from repro.net.topology import Topology
from repro.services.backend import BackendDataCenter, KeywordRegistry
from repro.services.frontend import FrontEndServer
from repro.services.load import FrontEndLoadModel, ProcessingModel
from repro.sim import units
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.tcp.config import TcpConfig
from repro.tcp.host import TcpHost

#: A deployment site: (name, location).
Site = Tuple[str, GeoPoint]


@dataclass(frozen=True)
class ServiceProfile:
    """All tunables of one simulated search service."""

    name: str
    page_profile: PageProfile
    processing: ProcessingModel
    fe_load: FrontEndLoadModel
    #: FE-BE path characteristics.
    fe_be_bandwidth: float = units.mbps(500)
    fe_be_loss: float = 0.0
    fe_be_jitter: float = 0.0
    route_inflation: float = 1.5
    #: Pinned congestion window of the warm FE-BE connections (bytes).
    backend_window_bytes: Optional[int] = 12_000
    fe_pool_size: int = 8
    #: TCP config used on FE (user-facing) and BE listeners.  The BE
    #: default pins the FE-BE per-flow window (split TCP's warm leg).
    edge_tcp: TcpConfig = field(default_factory=TcpConfig)
    backend_tcp: TcpConfig = field(
        default_factory=lambda: TcpConfig(fixed_window_bytes=12_000))


def google_like_profile() -> ServiceProfile:
    """A dedicated-FE service calibrated to the paper's Google numbers."""
    return ServiceProfile(
        name="google-like",
        page_profile=PageProfile(static_size=4_300,
                                 dynamic_base_size=24_000,
                                 dynamic_complexity_size=12_000),
        processing=ProcessingModel(base=0.030, complexity_weight=0.8,
                                   popularity_discount=0.4, sigma=0.12),
        fe_load=FrontEndLoadModel(median_delay=0.004, sigma=0.25,
                                  per_concurrent_delay=0.0002),
        fe_be_bandwidth=units.gbps(1),
        fe_be_loss=0.0,
        fe_be_jitter=units.ms(0.3),
        route_inflation=1.5,
        backend_window_bytes=12_000,
        fe_pool_size=8,
    )


def bing_akamai_profile() -> ServiceProfile:
    """A shared-CDN-FE service calibrated to the paper's Bing numbers."""
    return ServiceProfile(
        name="bing-akamai",
        page_profile=PageProfile(static_size=13_500,
                                 dynamic_base_size=26_000,
                                 dynamic_complexity_size=14_000),
        processing=ProcessingModel(base=0.190, complexity_weight=1.2,
                                   popularity_discount=0.35, sigma=0.25),
        fe_load=FrontEndLoadModel(median_delay=0.015, sigma=0.9,
                                  per_concurrent_delay=0.002),
        fe_be_bandwidth=units.mbps(400),
        fe_be_loss=0.0005,
        fe_be_jitter=units.ms(2),
        route_inflation=1.7,
        backend_window_bytes=12_000,
        fe_pool_size=10,
    )


class ServiceDeployment:
    """A service profile instantiated onto a topology."""

    def __init__(self, sim: Simulator, topology: Topology,
                 streams: RandomStreams, profile: ServiceProfile, *,
                 fe_sites: Sequence[Site],
                 be_sites: Sequence[Site],
                 cache_static: bool = True,
                 content_seed: int = 0,
                 keyed_draws: bool = False,
                 cache_spec: Optional[CacheHierarchySpec] = None):
        if not fe_sites:
            raise ValueError("need at least one FE site")
        if not be_sites:
            raise ValueError("need at least one BE site")
        self.sim = sim
        self.topology = topology
        self.streams = streams
        self.profile = profile
        self.registry = KeywordRegistry()
        self.keyed_draws = keyed_draws
        self.cache_spec = cache_spec if cache_spec is not None \
            else CacheHierarchySpec()
        self.pages = PageGenerator(profile.name, profile.page_profile,
                                   seed=content_seed)
        self.backends: List[BackendDataCenter] = []
        self.frontends: List[FrontEndServer] = []
        #: node name -> deployment site name (e.g. metro), for both roles.
        self.site_of_node: Dict[str, str] = {}
        #: FE node name -> the BE it is homed on and linked to.
        self._backend_of: Dict[str, BackendDataCenter] = {}
        self._build_backends(be_sites)
        self._build_frontends(fe_sites, cache_static)

    # ------------------------------------------------------------------
    def _node_name(self, role: str, site_name: str) -> str:
        return "%s-%s-%s" % (role, self.profile.name, site_name)

    def _build_backends(self, be_sites: Sequence[Site]) -> None:
        for site_name, location in be_sites:
            node = self.topology.add_node(self._node_name("be", site_name),
                                          location)
            self.site_of_node[node.name] = site_name
            tcp_host = TcpHost(self.sim, node, self.profile.backend_tcp,
                               self.streams)
            self.backends.append(BackendDataCenter(
                self.sim, node,
                service_name=self.profile.name,
                page_generator=self.pages,
                processing_model=self.profile.processing,
                registry=self.registry,
                streams=self.streams,
                tcp_host=tcp_host,
                keyed_draws=self.keyed_draws))

    def _build_frontends(self, fe_sites: Sequence[Site],
                         cache_static: bool) -> None:
        for site_name, location in fe_sites:
            node = self.topology.add_node(self._node_name("fe", site_name),
                                          location)
            self.site_of_node[node.name] = site_name
            tcp_host = TcpHost(self.sim, node, self.profile.edge_tcp,
                               self.streams)
            backend, _ = nearest(location, self.backends)
            self._backend_of[node.name] = backend
            self.topology.connect(
                node.name, backend.node.name,
                bandwidth=self.profile.fe_be_bandwidth,
                loss_rate=self.profile.fe_be_loss,
                jitter=self.profile.fe_be_jitter,
                route_inflation=self.profile.route_inflation)
            self.frontends.append(FrontEndServer(
                self.sim, node, tcp_host,
                service_name=self.profile.name,
                page_generator=self.pages,
                load_model=self.profile.fe_load,
                backend_host=backend.node.name,
                streams=self.streams,
                cache_static=cache_static,
                pool_size=self.profile.fe_pool_size,
                backend_tcp_config=self.profile.backend_tcp,
                backend_window_bytes=self.profile.backend_window_bytes,
                keyed_draws=self.keyed_draws,
                cache_spec=self.cache_spec,
                cache_seed=self.streams.seed))

    # ------------------------------------------------------------------
    # lookups used by the testbed / experiments
    # ------------------------------------------------------------------
    def register_keywords(self, keywords) -> None:
        """Make keyword attributes resolvable at the back-ends."""
        self.registry.register_all(keywords)

    def frontend_by_name(self, name: str) -> FrontEndServer:
        for frontend in self.frontends:
            if frontend.node.name == name or name in frontend.node.name:
                return frontend
        raise KeyError("no frontend matching %r" % name)

    def backend_for_frontend(self, frontend: FrontEndServer
                             ) -> BackendDataCenter:
        """The BE a given FE forwards to (its nearest, chosen when the
        deployment was built)."""
        return self._backend_of[frontend.node.name]

    def merged_fetch_log(self) -> Dict[str, object]:
        """Union of all FEs' ground-truth fetch records."""
        merged = {}
        for frontend in self.frontends:
            merged.update(frontend.fetch_log)
        return merged

    def merged_query_log(self) -> Dict[str, object]:
        """Union of all BEs' ground-truth query records."""
        merged = {}
        for backend in self.backends:
            merged.update(backend.query_log)
        return merged
