#!/usr/bin/env python
"""Build your own service deployment with the library API.

Shows the composition a downstream user would do: define a custom
service profile (a hypothetical "regional search" provider), deploy it
on a topology next to a handful of clients, run a small campaign, and
run the paper's full inference pipeline on the captured traces.

Run::

    python examples/custom_deployment.py
"""

from repro.analysis.boundary import BoundaryCalibration
from repro.content.keywords import Keyword
from repro.content.page import PageProfile
from repro.core.bounds import check_bounds
from repro.core.metrics import extract_all_calibrated
from repro.measure.capture import PacketCapture
from repro.measure.driver import run_queries
from repro.net.geo import GeoPoint
from repro.net.topology import Topology
from repro.services.deployment import ServiceDeployment, ServiceProfile
from repro.services.load import FrontEndLoadModel, ProcessingModel
from repro.sim import units
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.tcp.config import TcpConfig
from repro.tcp.host import TcpHost


def main() -> None:
    # ------------------------------------------------------------------
    # 1. A custom service profile: a small regional search provider with
    #    one data center, modest processing times, and CUBIC edges.
    # ------------------------------------------------------------------
    profile = ServiceProfile(
        name="regional-search",
        page_profile=PageProfile(static_size=6_000,
                                 dynamic_base_size=20_000,
                                 dynamic_complexity_size=8_000),
        processing=ProcessingModel(base=0.080, complexity_weight=1.0,
                                   popularity_discount=0.3, sigma=0.2),
        fe_load=FrontEndLoadModel(median_delay=0.006, sigma=0.3),
        fe_be_bandwidth=units.mbps(300),
        route_inflation=1.5,
        backend_window_bytes=10_000,
        edge_tcp=TcpConfig(congestion="cubic"),
    )

    # ------------------------------------------------------------------
    # 2. Deploy it: one BE in Kansas, FEs on both coasts.
    # ------------------------------------------------------------------
    sim = Simulator()
    streams = RandomStreams(seed=11)
    topology = Topology(sim, streams)
    deployment = ServiceDeployment(
        sim, topology, streams, profile,
        fe_sites=[("sf", GeoPoint(37.77, -122.42)),
                  ("nyc", GeoPoint(40.71, -74.01))],
        be_sites=[("kansas", GeoPoint(39.0, -98.0))])

    # ------------------------------------------------------------------
    # 3. Two clients, one per coast, wired by hand.
    # ------------------------------------------------------------------
    clients, captures = {}, {}
    for name, lat, lon, fe_tag in (("client-west", 37.8, -122.3, "sf"),
                                   ("client-east", 40.8, -74.1, "nyc")):
        node = topology.add_node(name, GeoPoint(lat, lon))
        clients[name] = TcpHost(sim, node, TcpConfig(), streams)
        captures[name] = PacketCapture(sim, clients[name])
        frontend = deployment.frontend_by_name(fe_tag)
        topology.connect(name, frontend.node.name,
                         delay=units.ms(4), bandwidth=units.mbps(50))

    # ------------------------------------------------------------------
    # 4. A tiny campaign through the measurement stack.
    # ------------------------------------------------------------------
    class _Vp:
        """Minimal vantage-point shim for the emulator."""

        def __init__(self, name):
            self.name = name

    class _ScenarioShim:
        """Duck-typed scenario facade over the hand-built world."""

        def __init__(self):
            self.sim = sim

        def client_host(self, vp):
            return clients[vp.name]

        def client_capture(self, vp):
            return captures[vp.name]

        def service(self, service_name):
            assert service_name == profile.name
            return deployment

        def client_fe_rtt(self, vp, frontend, service):
            return topology.rtt(vp.name, frontend.node.name)

        def link_client_to_frontend(self, vp, frontend, service):
            """Links are wired by hand above."""

    # Every query at t=0, each client to its own coast's FE.
    plan = []
    for client_name, fe_tag in (("client-west", "sf"),
                                ("client-east", "nyc")):
        for text in ("coffee near campus", "library opening hours",
                     "regional train schedule"):
            keyword = Keyword(text=text, popularity=0.5, complexity=0.4)
            plan.append((sim.now, _Vp(client_name), profile.name,
                         deployment.frontend_by_name(fe_tag), keyword))
    played = run_queries(_ScenarioShim(), plan, store_payload=True)
    sessions = [s for vp_sessions in played.values() for s in vp_sessions]

    # ------------------------------------------------------------------
    # 5. The paper's pipeline on the captured traces.
    # ------------------------------------------------------------------
    assert all(s.complete for s in sessions), "campaign failed"
    calibration = BoundaryCalibration.from_sessions(sessions)
    metrics = extract_all_calibrated(sessions, calibration)
    bounds = check_bounds(metrics, deployment.merged_fetch_log())

    print("Custom deployment: %s" % profile.name)
    print("  static portion discovered: %d bytes"
          % calibration.static_size)
    print("  %-14s %-8s %10s %10s %10s"
          % ("client", "FE", "Tstatic", "Tdynamic", "Tdelta"))
    for metric in metrics:
        session = metric.session
        print("  %-14s %-8s %8.1fms %8.1fms %8.1fms"
              % (session.vp_name,
                 deployment.site_of_node[session.fe_name],
                 units.seconds_to_ms(metric.tstatic),
                 units.seconds_to_ms(metric.tdynamic),
                 units.seconds_to_ms(metric.tdelta)))
    print("  Eq. 1 bounds hold on %d/%d queries"
          % (int(bounds.both_fraction * bounds.n), bounds.n))


if __name__ == "__main__":
    main()
