"""Tests for query plans: the figure experiments' driver, run_queries."""

import pytest

from repro.content.keywords import Keyword
from repro.measure.driver import run_queries
from repro.measure.emulator import QueryEmulator
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


def test_plan_plays_like_queries_submitted_at_their_instants():
    scenario = _scenario()
    played = run_queries(scenario, _plan(scenario))
    scenario = _scenario()
    emulators = {}
    for time, vp, service, frontend, keyword in _plan(scenario):
        scenario.link_client_to_frontend(vp, frontend,
                                         scenario.service(service))
        if vp.name not in emulators:
            emulators[vp.name] = QueryEmulator(scenario, vp)
        scenario.sim.call_at(time, emulators[vp.name].submit, service,
                             frontend, keyword)
    scenario.sim.run()
    assert {name: [_fingerprint(s) for s in sessions]
            for name, sessions in played.items()} == \
        {name: [_fingerprint(s) for s in emulator.sessions]
         for name, emulator in emulators.items()}


def test_plan_rejects_two_frontends_for_one_vp():
    scenario = _scenario()
    vp = scenario.vantage_points[0]
    frontends = scenario.service(Scenario.GOOGLE).frontends[:2]
    plan = [(0.0, vp, Scenario.GOOGLE, frontend, KEYWORDS[0])
            for frontend in frontends]
    with pytest.raises(ValueError, match="two front-ends"):
        run_queries(scenario, plan)
