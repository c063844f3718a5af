"""Unit tests for k-NN queries and their k-min/k-max transforms."""

import math

import numpy as np
import pytest

from repro.queries.knn import KMinQuery, KnnQuery, TopKQuery


class TestKnnQuery:
    def test_distance_is_absolute_difference(self):
        query = KnnQuery(q=100.0, k=3)
        assert query.distance(110.0) == 10.0
        assert query.distance(90.0) == 10.0
        assert query.distance(100.0) == 0.0

    def test_distance_array(self):
        query = KnnQuery(q=0.0, k=1)
        np.testing.assert_array_equal(
            query.distance_array(np.array([-2.0, 3.0])), [2.0, 3.0]
        )

    def test_true_answer_picks_closest(self):
        query = KnnQuery(q=10.0, k=2)
        values = np.array([0.0, 9.0, 12.0, 100.0])
        assert query.true_answer(values) == frozenset({1, 2})

    def test_region_is_symmetric_interval(self):
        query = KnnQuery(q=50.0, k=1)
        assert query.interval(10.0) == (40.0, 60.0)

    def test_infinite_q_rejected(self):
        with pytest.raises(ValueError):
            KnnQuery(q=math.inf, k=1)

    def test_nonpositive_k_rejected(self):
        with pytest.raises(ValueError):
            KnnQuery(q=0.0, k=0)

    def test_k_larger_than_population_returns_all(self):
        query = KnnQuery(q=0.0, k=10)
        assert query.true_answer(np.array([1.0, 2.0])) == frozenset({0, 1})

    def test_is_rank_based(self):
        assert KnnQuery(q=0.0, k=1).is_rank_based


class TestTopKQuery:
    def test_prefers_largest_values(self):
        query = TopKQuery(k=2)
        values = np.array([5.0, 100.0, 1.0, 50.0])
        assert query.true_answer(values) == frozenset({1, 3})

    def test_region_is_upper_half_line(self):
        lower, upper = TopKQuery(k=1).interval(-42.0)
        assert lower == 42.0
        assert upper == math.inf

    def test_region_membership_matches_distance(self):
        query = TopKQuery(k=1)
        threshold = query.distance(42.0)
        lower, upper = query.interval(threshold)
        assert lower <= 50.0 <= upper       # higher value: inside
        assert not (lower <= 30.0 <= upper)  # lower value: outside


class TestKMinQuery:
    def test_prefers_smallest_values(self):
        query = KMinQuery(k=2)
        values = np.array([5.0, 100.0, 1.0, 50.0])
        assert query.true_answer(values) == frozenset({0, 2})

    def test_region_is_lower_half_line(self):
        lower, upper = KMinQuery(k=1).interval(7.0)
        assert lower == -math.inf
        assert upper == 7.0

    def test_region_membership_matches_distance(self):
        query = KMinQuery(k=1)
        threshold = query.distance(42.0)
        lower, upper = query.interval(threshold)
        assert lower <= 30.0 <= upper
        assert not (lower <= 50.0 <= upper)


def test_transforms_are_order_isomorphic_to_extreme_knn():
    """TopK / KMin agree with a k-NN query at a far-away finite point."""
    values = np.array([10.0, 700.0, 355.0, 42.0, 999.0, 3.0])
    far = KnnQuery(q=1e9, k=3)
    assert TopKQuery(k=3).true_answer(values) == far.true_answer(values)
    near = KnnQuery(q=-1e9, k=3)
    assert KMinQuery(k=3).true_answer(values) == near.true_answer(values)
