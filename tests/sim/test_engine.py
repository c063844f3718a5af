"""Unit tests for the simulation engine."""

import pytest

from repro.sim.engine import SimulationEngine
from repro.sim.events import SimulationError


def test_run_fires_in_time_order():
    engine = SimulationEngine()
    fired = []
    engine.schedule_at(2.0, lambda: fired.append("b"))
    engine.schedule_at(1.0, lambda: fired.append("a"))
    engine.run()
    assert fired == ["a", "b"]
    assert engine.now == 2.0


def test_an_event_schedules_from_its_own_time():
    engine = SimulationEngine()
    times = []

    def first():
        engine.schedule_at(engine.now + 5.0, lambda: times.append(engine.now))

    engine.schedule_at(10.0, first)
    engine.run()
    assert times == [15.0]


def test_run_until_stops_and_advances_clock():
    engine = SimulationEngine()
    fired = []
    engine.schedule_at(1.0, lambda: fired.append(1))
    engine.schedule_at(5.0, lambda: fired.append(5))
    engine.run(until=3.0)
    assert fired == [1]
    assert engine.now == 3.0
    engine.run()
    assert fired == [1, 5]


def test_run_until_with_no_events_advances_clock():
    engine = SimulationEngine()
    engine.run(until=42.0)
    assert engine.now == 42.0


def test_scheduling_in_the_past_raises():
    engine = SimulationEngine()
    engine.schedule_at(5.0, lambda: None)
    engine.run()
    with pytest.raises(SimulationError):
        engine.schedule_at(1.0, lambda: None)


def test_an_event_cannot_schedule_before_its_own_time():
    engine = SimulationEngine()
    raised = []

    def first():
        with pytest.raises(SimulationError):
            engine.schedule_at(engine.now - 1.0, lambda: None)
        raised.append(engine.now)

    engine.schedule_at(10.0, first)
    engine.run()
    assert raised == [10.0]
    assert engine.pending == 0


def test_run_fires_each_event_once():
    engine = SimulationEngine()
    fired = []
    for t in (1.0, 2.0, 2.0, 3.0):
        engine.schedule_at(t, lambda t=t: fired.append(t))
    engine.run()
    engine.run()  # a drained queue fires nothing again
    assert fired == [1.0, 2.0, 2.0, 3.0]
    assert engine.pending == 0


def test_events_scheduled_during_run_fire():
    engine = SimulationEngine()
    fired = []

    def chain(depth: int):
        fired.append(depth)
        if depth < 3:
            engine.schedule_at(engine.now + 1.0, lambda: chain(depth + 1))

    engine.schedule_at(0.0, lambda: chain(0))
    engine.run()
    assert fired == [0, 1, 2, 3]
    assert engine.now == 3.0


def test_step_fires_one_event():
    engine = SimulationEngine()
    fired = []
    engine.schedule_at(1.0, lambda: fired.append(1))
    engine.schedule_at(2.0, lambda: fired.append(2))
    assert engine.step()
    assert fired == [1]
    assert engine.step()
    assert not engine.step()


def test_reset_rewinds_clock_and_queue():
    engine = SimulationEngine()
    engine.schedule_at(1.0, lambda: None)
    engine.run()
    engine.reset()
    assert engine.now == 0.0
    assert engine.pending == 0
    engine.schedule_at(0.5, lambda: None)  # past-of-old-clock is fine now
    engine.run()
    assert engine.now == 0.5


def test_reentrant_run_rejected():
    engine = SimulationEngine()

    def recurse():
        engine.run()

    engine.schedule_at(1.0, recurse)
    with pytest.raises(SimulationError):
        engine.run()


def test_simultaneous_events_fifo():
    engine = SimulationEngine()
    fired = []
    for i in range(5):
        engine.schedule_at(7.0, (lambda j: lambda: fired.append(j))(i))
    engine.run()
    assert fired == [0, 1, 2, 3, 4]


def test_advance_takes_the_callers_place_among_same_instant_events():
    """``advance(t)`` fires what was scheduled at or before ``t`` ahead of
    the caller — also what those events schedule before ``t`` — but an
    event they schedule at ``t`` itself waits behind the caller, as if
    the caller had been an event scheduled when ``advance`` was called."""
    engine = SimulationEngine()
    fired = []

    def early():
        fired.append(("early", engine.now))
        engine.schedule_at(1.5, lambda: fired.append(("chained", engine.now)))
        engine.schedule_at(2.0, lambda: fired.append(("late", engine.now)))

    engine.schedule_at(1.0, early)
    engine.schedule_at(2.0, lambda: fired.append(("due", engine.now)))
    engine.schedule_at(3.0, lambda: fired.append(("future", engine.now)))
    engine.advance(2.0)
    assert fired == [("early", 1.0), ("chained", 1.5), ("due", 2.0)]
    assert engine.now == 2.0
    engine.run()
    assert fired[3:] == [("late", 2.0), ("future", 3.0)]


def test_advance_skips_a_cancelled_head_and_moves_the_clock():
    engine = SimulationEngine()
    fired = []
    engine.schedule_at(1.0, lambda: fired.append("cancelled")).cancel()
    engine.advance(2.0)
    assert fired == [] and engine.now == 2.0 and engine.pending == 0
    engine.advance(1.0)  # never backwards
    assert engine.now == 2.0
