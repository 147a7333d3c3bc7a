"""Admission control for the session-replay cache.

A session may be recorded or replayed only when its packet timeline
provably depends on nothing outside the cache key.  The checks split
into three layers, evaluated cheapest-first:

* **campaign-level** — properties of the whole campaign (draw keying)
  that either hold for every submission or for none;
* **path-level** — properties of one ``(service, FE, VP)`` triple
  (congestion model, link loss/jitter/faults, FE result cache) that are
  constant across a campaign and therefore cached per triple;
* **temporal** — properties of one submission instant (cross-traffic on
  the front-end, start-time binade), evaluated per query by the
  session executor (:mod:`repro.sim.executor`) against the campaign's
  submission schedule
  (:class:`~repro.measure.streaming.StreamingSchedule`).

Every helper returns ``None`` for "admissible" or a short reason string
that becomes a bypass-counter key in
:class:`~repro.sim.stats.ReplayStats` and
:class:`~repro.sim.stats.TierStats`.
"""

from __future__ import annotations

from typing import Optional


def campaign_bypass_reason(scenario) -> Optional[str]:
    """Why an entire campaign run cannot use the replay cache.

    * ``unkeyed-draws`` — with shared sequential service streams, a
      query's FE-load/Tproc draws depend on the global arrival order,
      so skipping a simulation would shift every later draw.
    """
    if not scenario.config.keyed_service_draws:
        return "unkeyed-draws"
    return None


#: Node pairs whose direct links a session's packets traverse:
#: client<->FE and FE<->BE, both directions.
def _path_links(topology, vp_name: str, fe_name: str, be_name: str):
    for src, dst in ((vp_name, fe_name), (fe_name, vp_name),
                     (fe_name, be_name), (be_name, fe_name)):
        yield topology.node(src).links.get(dst)


def path_bypass_reason(scenario, service_name: str, frontend,
                       vp_name: str) -> Optional[str]:
    """Why a ``(service, FE, VP)`` triple cannot be cached.

    The triple's links and TCP configs are fixed for the lifetime of a
    scenario, so the executor caches this verdict per triple.  The
    client->FE link must already exist (drivers link before submitting).
    """
    if frontend.cache_results:
        # The FE result cache makes a session's bytes depend on every
        # *earlier* query for the same keyword — history the key can't
        # capture.
        return "cache-results"
    if frontend.static_cache.finite or frontend.result_cache.spec.finite:
        # A finite (evicting) content cache is temporal state: whether
        # the static portion hits depends on every earlier request that
        # touched the hierarchy, so no session timeline is reusable.
        # The degenerate infinite default always hits and stays
        # admissible.
        return "finite-content-cache"
    deployment = scenario.service(service_name)
    profile = deployment.profile
    if profile.backend_window_bytes is None:
        # Without the pinned fixed-window controller the warm FE-BE
        # leg's cwnd carries history from previous fetches.
        return "backend-window"
    for tcp in (scenario.config.client_tcp, profile.edge_tcp):
        if tcp.congestion == "reno":
            # Reno is admissible outright: both its slow-start and its
            # congestion-avoidance growth are byte-counting (no wall-
            # clock terms), so a recorded timeline is time-shiftable.
            continue
        if tcp.congestion == "cubic" \
                and tcp.initial_ssthresh_bytes >= (1 << 30):
            # Cubic differs from Reno only after slow start exits, and
            # its window there is a function of wall-clock time since
            # the last loss — not time-shiftable.  With an effectively
            # infinite initial ssthresh on a loss-free admitted path,
            # slow start never exits, where cubic's byte-counting ramp
            # is identical to Reno's; sessions are then replayable (and
            # bit-equal to reno ones, see test_replay_cubic_admission).
            continue
        return "congestion-model"
    backend = deployment.backend_for_frontend(frontend)
    for link in _path_links(scenario.topology, vp_name,
                            frontend.node.name, backend.node.name):
        if link is None:
            return "no-direct-link"
        if link.loss_rate != 0.0:
            return "lossy-path"
        if link.jitter != 0.0:
            return "jittery-path"
        if link.fault_filter is not None:
            return "fault-injection"
    return None
