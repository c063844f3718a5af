"""Unit tests for per-query filter slots at shared sources."""

import math

import numpy as np
import pytest

from repro.multiquery.source import (
    QueryConstraintMessage,
    QueryProbeMessage,
    SlotPopulation,
)
from repro.network.accounting import MessageLedger
from repro.network.channel import Channel
from repro.network.messages import MessageKind
from repro.streams.filters import FilterConstraint


@pytest.fixture
def system():
    """Two slotted sources on a channel whose server end records every
    message it is sent."""
    ledger = MessageLedger()
    channel = Channel(ledger)
    received = []
    channel.bind_server(received.append)
    population = SlotPopulation([5.0, 15.0], [channel], [(0, 2)], ("a", "b"))
    return channel, population, received, ledger


def updates(received):
    return [
        (m.stream_id, m.value, m.queries)
        for m in received
        if m.kind is MessageKind.UPDATE
    ]


def install(channel, stream_id, query, lower, upper, assumed=None, time=0.0):
    channel.send_to_source(
        QueryConstraintMessage(stream_id, time, lower, upper, assumed, query=query)
    )


class TestSlots:
    def test_update_flips_only_affected_queries(self, system):
        channel, population, received, _ = system
        install(channel, 0, "a", 0.0, 10.0)  # value 5.0
        install(channel, 0, "b", 7.0, 20.0)
        # 5 -> 8: enters b's range, stays in a's.
        population[0].apply(8.0, 1.0)
        assert updates(received) == [(0, 8.0, ("b",))]
        received.clear()
        # 8 -> 12: leaves a's range, stays in b's.
        population[0].apply(12.0, 2.0)
        assert updates(received) == [(0, 12.0, ("a",))]

    def test_single_physical_update_for_multi_flip(self, system):
        channel, population, received, ledger = system
        install(channel, 0, "a", 0.0, 10.0)
        install(channel, 0, "b", 0.0, 10.0)
        population[0].apply(50.0, 1.0)  # leaves both at once
        assert updates(received) == [(0, 50.0, ("a", "b"))]
        assert ledger.count(MessageKind.UPDATE) == 1

    def test_silenced_slot_never_flips(self, system):
        channel, population, received, _ = system
        install(channel, 0, "a", -math.inf, math.inf)
        population[0].apply(1e9, 1.0)
        assert updates(received) == []

    def test_no_slots_means_no_filter(self, system):
        _, population, received, _ = system
        population[1].apply(99.0, 1.0)
        assert updates(received) == [(1, 99.0, None)]

    def test_probe_resyncs_only_that_query(self, system):
        channel, population, received, ledger = system
        install(channel, 0, "a", 0.0, 10.0)
        install(channel, 0, "b", 0.0, 10.0)
        # Value drifts out; suppose a's protocol learned via probe.
        population[0].value = 12.0  # bypass apply to simulate missed state
        slots = population.slots
        slots["a"].inside[0] = slots["b"].inside[0] = True
        channel.send_to_source(QueryProbeMessage(0, 1.0, query="a"))
        assert received[-1].kind is MessageKind.PROBE_REPLY
        assert received[-1].value == 12.0
        assert not slots["a"].inside[0]  # resynced
        assert slots["b"].inside[0]      # untouched
        assert ledger.count(MessageKind.PROBE_REQUEST) == 1

    def test_columnar_probe_resyncs_only_that_querys_installed_rows(
        self, system
    ):
        channel, population, received, _ = system
        install(channel, 0, "a", 0.0, 10.0)
        install(channel, 0, "b", 0.0, 10.0)
        population.values[:] = [12.0, 13.0]  # both rows drift, unreported
        slots = population.slots
        slots["a"].inside[:] = slots["b"].inside[:] = [True, False]
        values = population.resync("a", np.array([0, 1]))
        assert values.tolist() == [12.0, 13.0]
        assert slots["a"].inside.tolist() == [False, False]  # row 1: no slot
        assert slots["b"].inside.tolist() == [True, False]
        assert updates(received) == []

    def test_stale_install_belief_self_corrects(self, system):
        channel, _, received, _ = system
        install(channel, 0, "a", 0.0, 10.0, assumed=False, time=1.0)  # wrong
        assert updates(received) == [(0, 5.0, ("a",))]
        assert received[-1].time == 1.0

    def test_slot_planes(self, system):
        channel, population, _, _ = system
        install(channel, 0, "a", 0.0, 1.0)
        slot = population.slots["a"]
        assert (slot.lower[0], slot.upper[0], slot.armed[0]) == (0.0, 1.0, True)
        assert slot.rank.tolist() == [0, -1]
        assert population.slots["b"].rank.tolist() == [-1, -1]
        assert np.array_equal(population.n_slots, [1, 0])


@pytest.mark.parametrize(
    "lower, upper",
    [(10.0, 0.0), (math.nan, 10.0), (0.0, math.nan)],
    ids=["inverted", "nan-lower", "nan-upper"],
)
def test_a_bad_interval_raises_and_leaves_the_slot(system, lower, upper):
    """The slot install validates its two floats as ``FilterConstraint``
    does and writes nothing when they are refused."""
    channel, population, received, _ = system
    install(channel, 0, "a", 0.0, 10.0)
    slot = population.slots["a"]
    before = [plane.copy() for plane in (slot.lower, slot.upper, slot.rank)]
    with pytest.raises(ValueError) as slotted:
        install(channel, 0, "a", lower, upper, assumed=False)
    with pytest.raises(ValueError) as scalar:
        FilterConstraint(lower, upper)
    assert str(slotted.value) == str(scalar.value)
    for plane, old in zip((slot.lower, slot.upper, slot.rank), before):
        assert np.array_equal(plane, old, equal_nan=True)
    assert updates(received) == []


def test_a_point_interval_is_a_valid_slot_filter(system):
    channel, population, received, _ = system
    install(channel, 0, "a", 5.0, 5.0)  # the value sits on the point
    population[0].apply(5.0, 1.0)
    assert updates(received) == []
    population[0].apply(5.5, 2.0)
    assert updates(received) == [(0, 5.5, ("a",))]
