"""Tests for the testbed: sites, vantage points, scenario wiring."""

import pytest

from repro.sim import units
from repro.sim.randomness import RandomStreams
from repro.testbed import sites
from repro.testbed.scenario import Scenario, ScenarioConfig
from repro.testbed.vantage import generate_vantage_points


# ---------------------------------------------------------------------------
# sites
# ---------------------------------------------------------------------------
def test_metro_catalog_shape():
    names = [m.name for m in sites.METROS]
    assert len(names) == len(set(names))
    assert len(sites.METROS) >= 40
    hubs = [m for m in sites.METROS if m.hub]
    assert 10 <= len(hubs) <= 25
    regions = {m.region for m in sites.METROS}
    assert regions == {"us", "eu", "asia", "other"}


def test_akamai_sites_denser_than_google_sites():
    akamai = sites.akamai_like_fe_sites()
    google = sites.google_like_fe_sites()
    assert len(akamai) > len(google) * 2
    # Hubs are always covered by both deployments.
    akamai_names = {name for name, _ in akamai}
    for name, _ in google:
        assert name in akamai_names


def test_akamai_coverage_parameter():
    full = sites.akamai_like_fe_sites(coverage=1.0)
    partial = sites.akamai_like_fe_sites(coverage=0.7)
    assert len(full) == len(sites.METROS)
    assert len(partial) < len(full)
    with pytest.raises(ValueError):
        sites.akamai_like_fe_sites(coverage=0.0)


def test_backend_site_lists_nonempty_and_distinct():
    google_names = {name for name, _ in sites.GOOGLE_LIKE_BE_SITES}
    bing_names = {name for name, _ in sites.BING_LIKE_BE_SITES}
    assert len(google_names) >= 5
    assert len(bing_names) >= 5
    assert google_names != bing_names


# ---------------------------------------------------------------------------
# vantage points
# ---------------------------------------------------------------------------
def test_vantage_generation_deterministic():
    a = generate_vantage_points(50, streams=RandomStreams(9))
    b = generate_vantage_points(50, streams=RandomStreams(9))
    assert [vp.name for vp in a] == [vp.name for vp in b]
    assert [vp.access_delay for vp in a] == [vp.access_delay for vp in b]


def test_vantage_region_mixture_roughly_matches_weights():
    vps = generate_vantage_points(400, streams=RandomStreams(1))
    us = sum(1 for vp in vps if vp.metro.region == "us")
    eu = sum(1 for vp in vps if vp.metro.region == "eu")
    assert 0.45 < us / 400 < 0.65
    assert 0.20 < eu / 400 < 0.40


def test_vantage_delay_model():
    vps = generate_vantage_points(10, streams=RandomStreams(2))
    vp = vps[0]
    # Same metro: no peering penalty.
    same = vp.one_way_delay_to(vp.metro.location, vp.metro.name)
    other = vp.one_way_delay_to(vp.metro.location, "elsewhere")
    assert other - same == pytest.approx(vp.peering_penalty)
    assert same >= vp.access_delay


def test_vantage_count_validation():
    with pytest.raises(ValueError):
        generate_vantage_points(0, streams=RandomStreams(0))


# ---------------------------------------------------------------------------
# scenario
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def small_scenario():
    return Scenario(ScenarioConfig(seed=4, vantage_count=40))


def test_scenario_has_both_services(small_scenario):
    scenario = small_scenario
    assert set(scenario.services) == {Scenario.GOOGLE, Scenario.BING}
    google = scenario.service(Scenario.GOOGLE)
    bing = scenario.service(Scenario.BING)
    assert len(bing.frontends) > len(google.frontends)
    with pytest.raises(KeyError):
        scenario.service("altavista")


def test_default_fe_is_nearest(small_scenario):
    scenario = small_scenario
    vp = scenario.vantage_points[0]
    service = scenario.service(Scenario.BING)
    fe = scenario.default_frontend(Scenario.BING, vp)
    best_rtt = scenario.client_fe_rtt(vp, fe, service)
    for other in service.frontends:
        assert best_rtt <= scenario.client_fe_rtt(vp, other, service) + 1e-12


def test_bing_default_rtts_dominate_google(small_scenario):
    """Figure 6's premise: the CDN's denser footprint yields lower RTTs."""
    scenario = small_scenario
    bing_rtts, google_rtts = [], []
    for vp in scenario.vantage_points:
        for name, bucket in ((Scenario.BING, bing_rtts),
                             (Scenario.GOOGLE, google_rtts)):
            service = scenario.service(name)
            fe = scenario.default_frontend(name, vp)
            bucket.append(scenario.client_fe_rtt(vp, fe, service))
    bing_under_20 = sum(1 for r in bing_rtts if r < units.ms(20))
    google_under_20 = sum(1 for r in google_rtts if r < units.ms(20))
    assert bing_under_20 > google_under_20
    assert bing_under_20 / len(bing_rtts) > 0.6


def test_link_creation_is_idempotent(small_scenario):
    scenario = small_scenario
    vp = scenario.vantage_points[1]
    service = scenario.service(Scenario.GOOGLE)
    fe = scenario.default_frontend(Scenario.GOOGLE, vp)
    d1 = scenario.link_client_to_frontend(vp, fe, service)
    d2 = scenario.link_client_to_frontend(vp, fe, service)
    assert d1 == d2
    # The node has exactly one link to that FE.
    node = scenario.client_host(vp).node
    assert sum(1 for n in node.links if n == fe.node.name) == 1
