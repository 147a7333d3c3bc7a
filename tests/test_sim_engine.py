"""Unit tests for the discrete-event engine."""

# This module deliberately exercises the engine's sharp edges (negative
# delays, re-entrant run(), cancellation), which is exactly what the
# event-safety lints exist to flag elsewhere.
# simlint: ignore-file[EVT001, EVT002, EVT003]

import pytest

from repro.sim.engine import SchedulingError, SimulationError, Simulator


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(3.0, fired.append, "c")
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, fired.append, "b")
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.now == 3.0


def test_ties_fire_in_scheduling_order():
    sim = Simulator()
    fired = []
    for tag in range(10):
        sim.schedule(1.0, fired.append, tag)
    sim.run()
    assert fired == list(range(10))


def test_zero_delay_event_from_callback_runs_same_time():
    sim = Simulator()
    fired = []

    def outer():
        fired.append(("outer", sim.now))
        sim.schedule(0.0, lambda: fired.append(("inner", sim.now)))

    sim.schedule(1.0, outer)
    sim.run()
    assert fired == [("outer", 1.0), ("inner", 1.0)]


def test_schedule_negative_delay_raises():
    sim = Simulator()
    with pytest.raises(SchedulingError):
        sim.schedule(-0.1, lambda: None)


def test_call_at_in_past_raises():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SchedulingError):
        sim.call_at(1.0, lambda: None)


def test_non_callable_rejected():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.schedule(1.0, "not callable")


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, fired.append, "x")
    sim.schedule(2.0, fired.append, "y")
    sim.cancel(handle)
    sim.run()
    assert fired == ["y"]


def test_cancel_is_idempotent():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    assert sim.cancel(handle) is True
    assert sim.cancel(handle) is False
    sim.run()
    assert sim.events_processed == 0


def test_cancel_after_fire_is_noop():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.cancel(handle) is False


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "early")
    sim.schedule(10.0, fired.append, "late")
    sim.run(until=5.0)
    assert fired == ["early"]
    assert sim.now == 5.0  # clock advanced to the horizon
    sim.run()
    assert fired == ["early", "late"]


def test_events_processed_counter():
    sim = Simulator()
    for i in range(4):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert sim.events_processed == 4


def test_engine_not_reentrant():
    sim = Simulator()

    def recurse():
        sim.run()

    sim.schedule(1.0, recurse)
    with pytest.raises(SimulationError):
        sim.run()


def test_start_time_respected():
    sim = Simulator(start_time=100.0)
    assert sim.now == 100.0
    fired = []
    sim.schedule(1.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [101.0]
