"""Per-session packet capture, ephemeral-port lifetime, import cost.

Each session's packets are captured on its own local port, so a
campaign keeps no packet that no session owns, whatever its length.
Sessions served without simulation (replay cache, analytic tier) hold
their ephemeral port only until they complete, so a long campaign can
wrap the port range on every executor and still match the packet
engine session for session.  And no campaign path imports scipy.
"""

import gc
import json
import os
import subprocess
import sys

import pytest

import repro
from repro.content.keywords import KeywordCatalog
from repro.measure.capture import PacketEvent
from repro.measure.driver import run_dataset_a
from repro.net.address import EphemeralPortAllocator
from repro.testbed.scenario import Scenario, ScenarioConfig

from .test_analytic_tier import session_fingerprint

DET_CONFIG = ScenarioConfig(seed=7, vantage_count=3,
                            keyed_service_draws=True,
                            deterministic_services=True)
KEYWORDS = KeywordCatalog(7).figure3_set()


def campaign(repeats, vantage_count, *, services=None, tier="packet",
             replay_cache=False):
    scenario = Scenario(DET_CONFIG)
    dataset = run_dataset_a(
        scenario, KEYWORDS, repeats=repeats, interval=10.0,
        services=services,
        vantage_points=scenario.vantage_points[:vantage_count],
        tier=tier, replay_cache=replay_cache)
    return scenario, dataset


def assert_same_sessions(got, want, tolerance=1e-6):
    """Session for session: every field equal, local ports included,
    except times, which agree within ``tolerance`` seconds."""
    assert len(got) == len(want)
    for got_session, want_session in zip(got, want):
        g = session_fingerprint(got_session)
        w = session_fingerprint(want_session)
        assert g[:5] + g[7:10] == w[:5] + w[7:10]
        assert g[5] == pytest.approx(w[5], abs=tolerance)
        assert g[6] == pytest.approx(w[6], abs=tolerance)
        assert len(g[10]) == len(w[10])
        for ge, we in zip(g[10], w[10]):
            assert ge[1:] == we[1:]
            assert ge[0] == pytest.approx(we[0], abs=tolerance)


@pytest.mark.parametrize("tier", ["packet", "auto"])
def test_fast_path_sessions_release_their_ports(monkeypatch, tier):
    """150 sessions through a 64-port range: the replay cache and the
    analytic tier must free each port they burn, or the range runs
    out."""
    monkeypatch.setattr(EphemeralPortAllocator, "LAST",
                        EphemeralPortAllocator.FIRST + 63)
    _, reference = campaign(150, 1, services=[Scenario.GOOGLE])
    _, dataset = campaign(150, 1, services=[Scenario.GOOGLE], tier=tier,
                          replay_cache=True)
    served = (dataset.replay.hits if tier == "packet"
              else dataset.tier.analytic)
    assert served > 64
    assert len({s.local_port for s in reference.sessions}) == 64
    assert_same_sessions(dataset.sessions, reference.sessions)


def stray_packet_events(repeats):
    """Sessions of a packet-tier campaign, and the packet events it left
    alive that belong to none of them."""
    gc.collect()
    before = [o for o in gc.get_objects() if type(o) is PacketEvent]
    known = {id(o) for o in before}
    scenario, dataset = campaign(repeats, 2)
    gc.collect()
    owned = {id(e) for s in dataset.sessions for e in s.events}
    stray = [o for o in gc.get_objects()
             if type(o) is PacketEvent and id(o) not in owned
             and id(o) not in known]
    del scenario  # held until counted: its nodes' taps hold the captures
    return len(dataset.sessions), len(stray)


def test_packet_campaign_keeps_no_packet_outside_its_sessions():
    """Flat per-session cost, pinned by counting: nothing a harvest
    could scan survives outside the sessions, at N and at 4N."""
    assert stray_packet_events(6) == (24, 0)
    assert stray_packet_events(24) == (96, 0)


CAMPAIGN_SCRIPT = """
import json, sys
import repro.__main__
from repro.content.keywords import KeywordCatalog
from repro.measure.driver import run_dataset_a
from repro.testbed.scenario import Scenario, ScenarioConfig

scenario = Scenario(ScenarioConfig(seed=7, vantage_count=2,
                                   keyed_service_draws=True,
                                   deterministic_services=True))
dataset = run_dataset_a(scenario, KeywordCatalog(7).figure3_set(),
                        repeats=4, tier="auto", replay_cache=False)
print(json.dumps({"validations": dataset.tier.validations,
                  "analytic": dataset.tier.analytic,
                  "scipy": "scipy" in sys.modules}))
"""


def test_auto_campaign_never_imports_scipy():
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    proc = subprocess.run([sys.executable, "-c", CAMPAIGN_SCRIPT],
                          env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["validations"] > 0 and result["analytic"] > 0
    assert result["scipy"] is False
