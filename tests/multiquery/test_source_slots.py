"""Unit tests for per-query filter slots at shared sources."""

import math

import numpy as np
import pytest

from repro.multiquery.coordinator import MultiQueryCoordinator
from repro.streams.filters import FilterConstraint


@pytest.fixture
def system():
    coordinator = MultiQueryCoordinator()
    coordinator.attach_sources(np.array([5.0, 15.0]))
    received = []
    # Intercept deliveries without full protocols.
    coordinator._dispatch = lambda sid, v, t, flipped: received.append(
        (sid, v, flipped)
    )
    return coordinator, received


class TestSlots:
    def test_update_flips_only_affected_queries(self, system):
        coordinator, received = system
        source = coordinator.sources[0]  # value 5.0
        source.install("a", FilterConstraint(0.0, 10.0), None, 0.0)
        source.install("b", FilterConstraint(7.0, 20.0), None, 0.0)
        # 5 -> 8: enters b's range, stays in a's.
        source.apply_value(8.0, 1.0)
        assert received == [(0, 8.0, ["b"])]
        received.clear()
        # 8 -> 12: leaves a's range, stays in b's.
        source.apply_value(12.0, 2.0)
        assert received == [(0, 12.0, ["a"])]

    def test_single_physical_update_for_multi_flip(self, system):
        coordinator, received = system
        source = coordinator.sources[0]
        source.install("a", FilterConstraint(0.0, 10.0), None, 0.0)
        source.install("b", FilterConstraint(0.0, 10.0), None, 0.0)
        source.apply_value(50.0, 1.0)  # leaves both at once
        assert len(received) == 1
        assert sorted(received[0][2]) == ["a", "b"]
        assert coordinator.shared_updates == 1

    def test_silenced_slot_never_flips(self, system):
        coordinator, received = system
        source = coordinator.sources[0]
        source.install(
            "a", FilterConstraint(-math.inf, math.inf), None, 0.0
        )
        source.apply_value(1e9, 1.0)
        assert received == []

    def test_no_slots_means_no_filter(self, system):
        coordinator, received = system
        coordinator.sources[1].apply_value(99.0, 1.0)
        assert received == [(1, 99.0, None)]

    def test_probe_resyncs_only_that_query(self, system):
        coordinator, received = system
        source = coordinator.sources[0]
        source.install("a", FilterConstraint(0.0, 10.0), None, 0.0)
        source.install("b", FilterConstraint(0.0, 10.0), None, 0.0)
        # Value drifts out; suppose a's protocol learned via probe.
        source.value = 12.0  # bypass apply to simulate missed state
        source.membership.reported_inside["a"] = True
        source.membership.reported_inside["b"] = True
        assert source.probe("a") == 12.0
        assert source.membership.reported_inside["a"] is False  # resynced
        assert source.membership.reported_inside["b"] is True   # untouched

    def test_stale_install_belief_self_corrects(self, system):
        coordinator, received = system
        source = coordinator.sources[0]  # value 5.0, inside [0, 10]
        source.install(
            "a", FilterConstraint(0.0, 10.0), False, 1.0  # wrong belief
        )
        assert received == [(0, 5.0, ["a"])]

    def test_slot_lookup(self, system):
        coordinator, _ = system
        source = coordinator.sources[0]
        constraint = FilterConstraint(0.0, 1.0)
        source.install("a", constraint, None, 0.0)
        assert source.slot("a") == constraint
        assert source.slot("zzz") is None
