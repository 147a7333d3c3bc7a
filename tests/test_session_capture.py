"""Per-session packet capture, ephemeral-port lifetime, import cost.

Each session's packets are captured on its own local port, so a
campaign keeps no packet that no session owns, whatever its length,
and each client node has one capture, whatever number of emulators
query from it.  Sessions served without simulation (replay cache,
analytic tier) hold their ephemeral port only until they complete, so
a long campaign can wrap the port range on every executor and still
match the packet engine session for session.  And nothing at run time
needs numpy or scipy: no campaign path imports them, and the
experiments that compute statistics run with both blocked.  A campaign
loads none of the trace-analysis modules either, and every module of
``repro.sim`` and every package imports on its own.
"""

import gc
import json
import os
import subprocess
import sys

import pytest

import repro
import repro.experiments.common as common
from repro.content.keywords import KeywordCatalog
from repro.measure.capture import PacketEvent
from repro.measure.driver import run_dataset_a, run_queries
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


def test_one_capture_per_client_node(monkeypatch):
    """A payload-storing calibration and two plans from one vantage
    point share its node's one capture; each session keeps payloads as
    its own plan chose."""
    played = []

    def recording_run_queries(*args, **kwargs):
        played.append(run_queries(*args, **kwargs))
        return played[-1]

    monkeypatch.setattr(common, "run_queries", recording_run_queries)
    scenario = Scenario(DET_CONFIG)
    vp = scenario.vantage_points[0]
    frontend = scenario.default_frontend(Scenario.GOOGLE, vp)
    common.calibrate_service(scenario, Scenario.GOOGLE, [frontend], vp)

    def plan():
        return [(scenario.sim.now + 5.0 * i, vp, Scenario.GOOGLE, frontend,
                 keyword) for i, keyword in enumerate(KEYWORDS)]

    sessions = (run_queries(scenario, plan())[vp.name]
                + run_queries(scenario, plan())[vp.name])
    # The host hands its segments to the one capture the scenario made.
    assert (scenario.client_host(vp).capture.__self__
            is scenario.client_capture(vp))
    (calibration,) = played
    assert calibration[vp.name]
    for session in calibration[vp.name]:
        assert session.complete and session.events
        assert all(e.payload is not None for e in session.events)
    assert len(sessions) == 2 * len(KEYWORDS)
    for session in sessions:
        assert session.complete and session.events
        assert all(e.payload is None for e in session.events)


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
                  "numpy": "numpy" in sys.modules,
                  "scipy": "scipy" in sys.modules}))
"""


def run_python(script, timeout, *args):
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    return subprocess.run([sys.executable, "-c", script, *args],
                          env=env, capture_output=True, text=True,
                          timeout=timeout, check=True)


def test_auto_campaign_never_imports_numpy_or_scipy():
    result = json.loads(run_python(CAMPAIGN_SCRIPT, 120)
                        .stdout.splitlines()[-1])
    assert result["validations"] > 0 and result["analytic"] > 0
    assert result["numpy"] is False
    assert result["scipy"] is False


#: Imports each module named on the command line into an interpreter
#: holding no ``repro`` module, and prints the ones that fail.
IMPORT_ALONE_SCRIPT = """
import importlib, json, sys
failed = {}
for name in sys.argv[1:]:
    for loaded in [m for m in sys.modules
                   if m == "repro" or m.startswith("repro.")]:
        del sys.modules[loaded]
    try:
        importlib.import_module(name)
    except ImportError as error:
        failed[name] = str(error)
print(json.dumps(failed))
"""


def sim_modules_and_packages():
    """Every module of ``repro.sim`` and every package of ``repro``,
    found on disk without importing them."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    names = []
    for folder, _dirs, files in os.walk(os.path.join(src, "repro")):
        package = os.path.relpath(folder, src).replace(os.sep, ".")
        for filename in sorted(files):
            stem, ext = os.path.splitext(filename)
            if ext != ".py":
                continue
            if stem == "__init__":
                names.append(package)
            elif package.split(".")[:2] == ["repro", "sim"]:
                names.append(package + "." + stem)
    return sorted(names)


def test_every_sim_module_and_package_imports_on_its_own():
    """No import cycle hides behind the order tests import in: each of
    these modules imports first into a fresh ``sys.modules``."""
    names = sim_modules_and_packages()
    assert "repro.sim.replay.timeline" in names
    assert "repro.measure" in names
    failed = json.loads(run_python(IMPORT_ALONE_SCRIPT, 120, *names)
                        .stdout.splitlines()[-1])
    assert failed == {}


def test_streaming_loads_only_the_analysis_it_uses():
    """A campaign needs the quantile sketch, not the trace analysis:
    importing ``repro.measure.streaming`` leaves the rest of
    ``repro.analysis`` unloaded."""
    script = ("import json, sys, repro.measure.streaming\n"
              "print(json.dumps(sorted(sys.modules)))")
    loaded = json.loads(run_python(script, 60).stdout.splitlines()[-1])
    assert "repro.analysis.sketch" in loaded
    for name in ("boundary", "clustering", "stats", "stream"):
        assert "repro.analysis." + name not in loaded


#: ``python -m repro caching keywords fig9 --scale tiny`` in an
#: interpreter where importing numpy or scipy fails.
BLOCKED_SCRIPT = """
import runpy, sys
sys.modules["numpy"] = sys.modules["scipy"] = None
sys.argv = ["repro", "caching", "keywords", "fig9", "--scale", "tiny"]
runpy.run_module("repro", run_name="__main__", alter_sys=True)
"""


def test_statistics_experiments_run_without_numpy_or_scipy():
    """The KS test (caching), Spearman (keywords) and the least-squares
    factoring (fig9) need neither package."""
    stdout = run_python(BLOCKED_SCRIPT, 300).stdout
    for name in ("caching", "keywords", "fig9"):
        assert "[%s completed in" % name in stdout
