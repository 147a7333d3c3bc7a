"""Tests for query plans (the figure experiments' driver, run_queries)
and for the one place every session starts, SessionExecutor.submit."""

from dataclasses import replace

import pytest

from repro.content.keywords import Keyword
from repro.experiments.ablation import (
    PLACEMENT_COVERAGES,
    run_placement_ablation,
    run_split_tcp_ablation,
)
from repro.experiments.common import (
    CALIBRATION_KEYWORDS,
    ExperimentScale,
    calibrate_service,
)
from repro.experiments.fig4 import FIG4_REPEATS, PAPER_FIG4_RTTS, run_fig4
from repro.measure.driver import run_queries
from repro.measure.emulator import QueryEmulator
from repro.sim.executor import SessionExecutor
from repro.testbed.scenario import Scenario, ScenarioConfig

KEYWORDS = [Keyword(text="plan query %d" % index, popularity=0.5,
                    complexity=0.5) for index in range(3)]


def _scenario():
    return Scenario(ScenarioConfig(seed=6, vantage_count=4))


def _plan(scenario):
    """Two VPs; a tie at the first instant, then a later query."""
    first, second = scenario.vantage_points[:2]
    start = scenario.sim.now
    return [
        (start, second, Scenario.GOOGLE,
         scenario.default_frontend(Scenario.GOOGLE, second), KEYWORDS[0]),
        (start, first, Scenario.GOOGLE,
         scenario.default_frontend(Scenario.GOOGLE, first), KEYWORDS[1]),
        (start + 2.0, second, Scenario.GOOGLE,
         scenario.default_frontend(Scenario.GOOGLE, second), KEYWORDS[2]),
    ]


def _fingerprint(session):
    return (session.query_id, session.keyword.text, session.fe_name,
            session.started_at, session.completed_at, session.local_port,
            session.response_size,
            [(e.time, e.direction, e.seq, e.ack, e.payload_len)
             for e in session.events])


def test_plan_returns_each_vps_sessions_in_submission_order():
    scenario = _scenario()
    plan = _plan(scenario)
    sessions = run_queries(scenario, plan)
    first, second = scenario.vantage_points[:2]
    assert list(sessions) == [second.name, first.name]
    assert [s.keyword for s in sessions[second.name]] == \
        [KEYWORDS[0], KEYWORDS[2]]
    assert [s.started_at for s in sessions[second.name]] == \
        [plan[0][0], plan[2][0]]
    assert all(s.complete for vp_sessions in sessions.values()
               for s in vp_sessions)


def _play_by_hand(scenario, plan):
    """Open and simulate each planned query at its instant, without the
    runner."""
    emulators = {}

    def start(emulator, service, frontend, keyword):
        emulator.simulate(emulator.open_session(service, frontend, keyword),
                          frontend)

    for time, vp, service, frontend, keyword in plan:
        scenario.link_client_to_frontend(vp, frontend,
                                         scenario.service(service))
        if vp.name not in emulators:
            emulators[vp.name] = QueryEmulator(scenario, vp)
        scenario.sim.call_at(time, start, emulators[vp.name], service,
                             frontend, keyword)
    scenario.sim.run()
    return {name: emulator.sessions for name, emulator in emulators.items()}


def _fingerprints(sessions_by_vp):
    return {name: [_fingerprint(s) for s in sessions]
            for name, sessions in sessions_by_vp.items()}


def test_plan_plays_like_queries_submitted_at_their_instants():
    scenario = _scenario()
    played = run_queries(scenario, _plan(scenario))
    scenario = _scenario()
    assert _fingerprints(played) == \
        _fingerprints(_play_by_hand(scenario, _plan(scenario)))


def test_one_vp_plans_queries_to_two_frontends():
    def plan(scenario):
        vp = scenario.vantage_points[0]
        first, second = scenario.service(Scenario.GOOGLE).frontends[:2]
        start = scenario.sim.now
        return [(start, vp, Scenario.GOOGLE, first, KEYWORDS[0]),
                (start, vp, Scenario.GOOGLE, second, KEYWORDS[1]),
                (start + 2.0, vp, Scenario.GOOGLE, second, KEYWORDS[2])]

    scenario = _scenario()
    played = run_queries(scenario, plan(scenario))
    first, second = scenario.service(Scenario.GOOGLE).frontends[:2]
    (sessions,) = played.values()
    assert [s.fe_name for s in sessions] == \
        [first.node.name, second.node.name, second.node.name]
    assert all(s.complete for s in sessions)
    scenario = _scenario()
    assert _fingerprints(played) == \
        _fingerprints(_play_by_hand(scenario, plan(scenario)))


# ---------------------------------------------------------------------------
# the one entry point: every session starts in SessionExecutor.submit
# ---------------------------------------------------------------------------
@pytest.fixture
def entry_counts(monkeypatch):
    """Count sessions opened on any emulator and submissions to any
    executor."""
    counts = {"opened": 0, "submitted": 0}
    open_session = QueryEmulator.open_session
    submit = SessionExecutor.submit

    def counted_open(emulator, *args):
        counts["opened"] += 1
        return open_session(emulator, *args)

    def counted_submit(executor, *args):
        counts["submitted"] += 1
        return submit(executor, *args)

    monkeypatch.setattr(QueryEmulator, "open_session", counted_open)
    monkeypatch.setattr(SessionExecutor, "submit", counted_submit)
    return counts


TINY = ExperimentScale.tiny(seed=1)


def _fig4():
    run_fig4(TINY)


def _split_tcp():
    run_split_tcp_ablation(replace(TINY, repeats=3))


def _placement():
    run_placement_ablation(TINY)


def _calibration():
    scenario = Scenario(ScenarioConfig(seed=1, vantage_count=4))
    frontends = scenario.service(Scenario.GOOGLE).frontends[:2]
    calibration = calibrate_service(scenario, Scenario.GOOGLE, frontends)
    assert sorted(calibration.boundaries) == \
        sorted(fe.node.name for fe in frontends)


@pytest.mark.parametrize("experiment,sessions", [
    (_fig4, len(PAPER_FIG4_RTTS) * FIG4_REPEATS
     + len(CALIBRATION_KEYWORDS[:2])),
    (_split_tcp, 3),
    (_placement, len(PLACEMENT_COVERAGES)
     * max(10, TINY.vantage_count // 3)),
    (_calibration, 2 * len(CALIBRATION_KEYWORDS)),
], ids=["fig4", "split-tcp", "placement", "calibration"])
def test_every_session_starts_in_the_executor(entry_counts, experiment,
                                              sessions):
    experiment()
    assert entry_counts == {"opened": sessions, "submitted": sessions}
