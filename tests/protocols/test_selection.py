"""Unit tests for the silencer-selection heuristics."""

import numpy as np
import pytest

from repro.protocols.selection import (
    BoundaryNearestSelection,
    RandomSelection,
)
from repro.streams.filters import FilterConstraint


def columns(candidates):
    """An id -> value mapping as the heuristics take it: ascending ids
    and their values."""
    ids = sorted(candidates)
    values = [candidates[i] for i in ids]
    return np.array(ids, dtype=np.int64), np.array(values, dtype=np.float64)


def order(heuristic, candidates, bound):
    return heuristic.order(*columns(candidates), bound).tolist()


def select(heuristic, candidates, count, bound):
    return heuristic.select(*columns(candidates), count, bound).tolist()


def boundary_distance(value, lower, upper):
    """What boundary-nearest selection orders by: the bound's own."""
    return FilterConstraint(lower, upper).boundary_distance(value)


class TestBoundaryDistance:
    def test_inside_measures_nearest_endpoint(self):
        assert boundary_distance(12.0, 10.0, 20.0) == 2.0
        assert boundary_distance(18.0, 10.0, 20.0) == 2.0
        assert boundary_distance(15.0, 10.0, 20.0) == 5.0

    def test_outside_measures_gap(self):
        assert boundary_distance(5.0, 10.0, 20.0) == 5.0
        assert boundary_distance(30.0, 10.0, 20.0) == 10.0

    def test_endpoints_are_zero(self):
        assert boundary_distance(10.0, 10.0, 20.0) == 0.0
        assert boundary_distance(20.0, 10.0, 20.0) == 0.0


class TestBoundaryNearest:
    def test_orders_by_proximity(self):
        heuristic = BoundaryNearestSelection()
        candidates = {0: 15.0, 1: 11.0, 2: 19.5, 3: 14.0}
        assert order(heuristic, candidates, FilterConstraint(10.0, 20.0)) == [2, 1, 3, 0]

    def test_select_takes_prefix(self):
        heuristic = BoundaryNearestSelection()
        candidates = {0: 15.0, 1: 11.0, 2: 19.5}
        assert select(heuristic, candidates, 2, FilterConstraint(10.0, 20.0)) == [2, 1]

    def test_select_count_exceeding_pool(self):
        heuristic = BoundaryNearestSelection()
        assert select(heuristic, {0: 1.0}, 10, FilterConstraint(0.0, 2.0)) == [0]

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            select(BoundaryNearestSelection(), {}, -1, FilterConstraint(0.0, 1.0))

    def test_ties_break_by_id(self):
        heuristic = BoundaryNearestSelection()
        candidates = {3: 12.0, 1: 18.0}  # both distance 2
        assert order(heuristic, candidates, FilterConstraint(10.0, 20.0)) == [1, 3]


class TestEmptyPools:
    def test_boundary_nearest_empty_candidates(self):
        heuristic = BoundaryNearestSelection()
        assert order(heuristic, {}, FilterConstraint(0.0, 10.0)) == []
        assert select(heuristic, {}, 3, FilterConstraint(0.0, 10.0)) == []

    def test_random_empty_candidates(self):
        heuristic = RandomSelection(seed=0)
        assert order(heuristic, {}, FilterConstraint(0.0, 10.0)) == []
        assert select(heuristic, {}, 5, FilterConstraint(0.0, 10.0)) == []

    def test_select_zero_count(self):
        heuristic = BoundaryNearestSelection()
        assert select(heuristic, {0: 1.0, 1: 2.0}, 0, FilterConstraint(0.0, 10.0)) == []


class TestTieBreakDeterminism:
    def test_boundary_nearest_duplicate_values(self):
        """Streams holding the *same* value tie in boundary distance and
        must come out in ascending id order, whatever the dict order."""
        heuristic = BoundaryNearestSelection()
        forward = {0: 12.0, 1: 12.0, 2: 12.0, 3: 15.0}
        backward = dict(reversed(list(forward.items())))
        expected = [0, 1, 2, 3]  # three ties at distance 2, then 3
        assert order(heuristic, forward, FilterConstraint(10.0, 20.0)) == expected
        assert order(heuristic, backward, FilterConstraint(10.0, 20.0)) == expected

    def test_boundary_nearest_symmetric_duplicates(self):
        """Equal distances from *opposite* endpoints also tie by id."""
        heuristic = BoundaryNearestSelection()
        candidates = {5: 11.0, 2: 19.0, 8: 11.0}  # all at distance 1
        assert order(heuristic, candidates, FilterConstraint(10.0, 20.0)) == [2, 5, 8]
        assert select(heuristic, candidates, 2, FilterConstraint(10.0, 20.0)) == [2, 5]

    def test_random_order_independent_of_dict_order(self):
        """Seeded random selection sorts ids before shuffling, so the
        candidate dict's insertion order must never leak through."""
        forward = {i: float(i) for i in range(12)}
        backward = dict(reversed(list(forward.items())))
        a = order(RandomSelection(seed=9), forward, FilterConstraint(0.0, 5.0))
        b = order(RandomSelection(seed=9), backward, FilterConstraint(0.0, 5.0))
        assert a == b

    def test_repeated_order_calls_are_reproducible_per_instance(self):
        candidates = {i: float(i) for i in range(8)}
        first = order(RandomSelection(seed=4), candidates, FilterConstraint(0.0, 5.0))
        second = order(RandomSelection(seed=4), candidates, FilterConstraint(0.0, 5.0))
        assert first == second


class TestRandomSelection:
    def test_returns_all_candidates(self):
        heuristic = RandomSelection(seed=0)
        candidates = {i: float(i) for i in range(10)}
        assert sorted(order(heuristic, candidates, FilterConstraint(0.0, 5.0))) == list(range(10))

    def test_seeded_reproducibility(self):
        candidates = {i: float(i) for i in range(20)}
        a = order(RandomSelection(seed=5), candidates, FilterConstraint(0.0, 5.0))
        b = order(RandomSelection(seed=5), candidates, FilterConstraint(0.0, 5.0))
        assert a == b

    def test_different_seeds_usually_differ(self):
        candidates = {i: float(i) for i in range(20)}
        a = order(RandomSelection(seed=1), candidates, FilterConstraint(0.0, 5.0))
        b = order(RandomSelection(seed=2), candidates, FilterConstraint(0.0, 5.0))
        assert a != b

    def test_names(self):
        assert RandomSelection().name == "random"
        assert BoundaryNearestSelection().name == "boundary-nearest"
