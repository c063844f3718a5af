"""Unit tests for the event queue primitives."""

import pytest

from repro.sim.events import Event, EventQueue, SimulationError


def test_push_pop_orders_by_time():
    queue = EventQueue()
    fired = []
    queue.push(3.0, lambda: fired.append(3))
    queue.push(1.0, lambda: fired.append(1))
    queue.push(2.0, lambda: fired.append(2))
    while queue:
        queue.pop().action()
    assert fired == [1, 2, 3]


def test_equal_times_fire_fifo():
    queue = EventQueue()
    fired = []
    for i in range(10):
        queue.push(5.0, (lambda j: lambda: fired.append(j))(i))
    while queue:
        queue.pop().action()
    assert fired == list(range(10))


def test_a_reserved_seq_keeps_its_place_among_same_instant_events():
    queue = EventQueue()
    fired = []
    reserved = queue.reserve()
    queue.push(5.0, lambda: fired.append("later"))
    queue.push(5.0, lambda: fired.append("reserved"), seq=reserved)
    while queue:
        queue.pop().action()
    assert fired == ["reserved", "later"]
    assert queue.reserve() == reserved + 2


def test_pop_empty_raises():
    queue = EventQueue()
    with pytest.raises(SimulationError):
        queue.pop()


def test_cancelled_event_is_skipped():
    queue = EventQueue()
    fired = []
    event = queue.push(1.0, lambda: fired.append("cancelled"))
    queue.push(2.0, lambda: fired.append("kept"))
    event.cancel()
    queue.pop().action()
    assert fired == ["kept"]
    assert not queue


def test_len_excludes_cancelled():
    queue = EventQueue()
    first = queue.push(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    assert len(queue) == 2
    first.cancel()
    assert len(queue) == 1


def test_peek_time_skips_cancelled():
    queue = EventQueue()
    first = queue.push(1.0, lambda: None)
    queue.push(4.0, lambda: None)
    first.cancel()
    assert queue.peek_time() == 4.0


def test_peek_time_empty_returns_none():
    assert EventQueue().peek_time() is None


def test_clear_drops_everything():
    queue = EventQueue()
    queue.push(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    queue.clear()
    assert not queue
    assert queue.peek_time() is None


def test_event_labels_are_kept():
    queue = EventQueue()
    event = queue.push(1.0, lambda: None, label="update")
    assert event.label == "update"


def test_event_ordering_uses_seq_for_ties():
    early = Event(time=1.0, seq=0, action=lambda: None)
    late = Event(time=1.0, seq=1, action=lambda: None)
    assert early < late
