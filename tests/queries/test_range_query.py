"""Unit tests for range queries."""

import math

import numpy as np
import pytest

from repro.queries.range_query import RangeQuery


def test_matches_closed_interval():
    query = RangeQuery(400.0, 600.0)
    assert query.matches(400.0)
    assert query.matches(600.0)
    assert query.matches(500.0)
    assert not query.matches(399.999)
    assert not query.matches(600.001)


def test_matches_array_agrees_with_scalar():
    query = RangeQuery(-2.0, 3.0)
    values = np.array([-3.0, -2.0, 0.0, 3.0, 3.5])
    expected = [query.matches(float(v)) for v in values]
    np.testing.assert_array_equal(query.matches_array(values), expected)


def test_true_answer_returns_ids():
    query = RangeQuery(10.0, 20.0)
    values = np.array([5.0, 15.0, 25.0, 20.0])
    assert query.true_answer(values) == frozenset({1, 3})


def test_invalid_range_rejected():
    with pytest.raises(ValueError):
        RangeQuery(5.0, 1.0)
    with pytest.raises(ValueError):
        RangeQuery(math.nan, 1.0)


def test_is_not_rank_based():
    assert not RangeQuery(0.0, 1.0).is_rank_based


def test_width():
    assert RangeQuery(400.0, 600.0).width == 200.0


def test_boundary_distance():
    query = RangeQuery(10.0, 20.0)
    assert query.bound.boundary_distance(12.0) == 2.0
    assert query.bound.boundary_distance(19.0) == 1.0
    assert query.bound.boundary_distance(5.0) == 5.0
    assert query.bound.boundary_distance(23.0) == 3.0


def test_half_line_ranges_allowed():
    query = RangeQuery(100.0, math.inf)
    assert query.matches(1e12)
    assert not query.matches(99.0)
