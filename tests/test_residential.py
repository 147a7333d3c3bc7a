"""Tests for the residential/mobile access-profile extension."""

from repro.sim import units
from repro.sim.randomness import RandomStreams
from repro.testbed.residential import (
    CAMPUS,
    MOBILE_3G,
    RESIDENTIAL_DSL,
    AccessProfile,
    scenario_with_access_profile,
    vantage_points_with_profile,
)
from repro.testbed.scenario import Scenario


def test_profiles_are_ordered_by_access_delay():
    for low, high in ((CAMPUS, RESIDENTIAL_DSL),
                      (RESIDENTIAL_DSL, MOBILE_3G)):
        assert low.access_delay_range_ms[1] <= \
            high.access_delay_range_ms[1]
        assert low.loss_rate <= high.loss_rate
        assert low.bandwidth >= high.bandwidth


def test_residential_points_have_dsl_delays():
    vps = vantage_points_with_profile(50, RESIDENTIAL_DSL, streams=RandomStreams(2))
    assert len(vps) == 50
    for vp in vps:
        assert units.ms(15) <= vp.access_delay <= units.ms(40)
        assert vp.name.startswith("residential-dsl")


def test_mobile_points_have_3g_delays():
    vps = vantage_points_with_profile(30, MOBILE_3G, streams=RandomStreams(2))
    for vp in vps:
        assert units.ms(40) <= vp.access_delay <= units.ms(120)


def test_generation_deterministic():
    a = vantage_points_with_profile(20, RESIDENTIAL_DSL, streams=RandomStreams(5))
    b = vantage_points_with_profile(20, RESIDENTIAL_DSL, streams=RandomStreams(5))
    assert [vp.access_delay for vp in a] == [vp.access_delay for vp in b]


def test_scenario_with_profile_swaps_fleet():
    scenario = scenario_with_access_profile(RESIDENTIAL_DSL, seed=3,
                                            vantage_count=10)
    assert len(scenario.vantage_points) == 10
    assert all(vp.name.startswith("residential-dsl")
               for vp in scenario.vantage_points)
    assert scenario.config.client_loss_rate == RESIDENTIAL_DSL.loss_rate
    assert scenario.config.client_bandwidth == RESIDENTIAL_DSL.bandwidth
    # The fleet must be usable: resolve + link a default FE.
    vp = scenario.vantage_points[0]
    frontend, rtt = scenario.connect_default(Scenario.BING, vp)
    assert rtt >= 2 * vp.access_delay  # DSL floor dominates


def test_dsl_rtt_floor_kills_sub_20ms():
    """Reviewer #5's exact point: no DSL node sees <20 ms anywhere."""
    scenario = scenario_with_access_profile(RESIDENTIAL_DSL, seed=4,
                                            vantage_count=15)
    for vp in scenario.vantage_points:
        frontend = scenario.default_frontend(Scenario.BING, vp)
        service = scenario.service(Scenario.BING)
        rtt = scenario.client_fe_rtt(vp, frontend, service)
        assert rtt > units.ms(20)


def test_custom_profile():
    profile = AccessProfile(name="lab", access_delay_range_ms=(0.5, 1.0),
                            peering_penalty_range_ms=(1.0, 2.0))
    vps = vantage_points_with_profile(5, profile, streams=RandomStreams(1))
    assert all(vp.access_delay <= units.ms(1.0) for vp in vps)
