"""Unit + property tests for spatial regions."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.spatial.geometry import (
    ALL_SPACE,
    EMPTY_REGION,
    BallRegion,
    BoxRegion,
    as_point,
)

points_2d = st.tuples(st.floats(-1e4, 1e4), st.floats(-1e4, 1e4)).map(
    lambda t: np.array(t)
)


class TestAsPoint:
    def test_coerces_lists(self):
        np.testing.assert_array_equal(as_point([1, 2]), [1.0, 2.0])

    def test_rejects_matrices(self):
        with pytest.raises(ValueError):
            as_point([[1.0, 2.0]])


class TestBoxRegion:
    def test_contains_closed(self):
        box = BoxRegion([0.0, 0.0], [10.0, 20.0])
        assert box.contains([0.0, 0.0])
        assert box.contains([10.0, 20.0])
        assert box.contains([5.0, 5.0])
        assert not box.contains([11.0, 5.0])
        assert not box.contains([5.0, -0.1])

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            BoxRegion([5.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            BoxRegion([0.0], [1.0, 1.0])

    def test_contains_many_matches_scalar(self):
        box = BoxRegion([0.0, 0.0], [1.0, 1.0])
        points = np.array([[0.5, 0.5], [2.0, 0.5], [1.0, 1.0]])
        np.testing.assert_array_equal(
            box.contains_many(points),
            [box.contains(p) for p in points],
        )

    def test_boundary_distance_inside_is_nearest_face(self):
        box = BoxRegion([0.0, 0.0], [10.0, 10.0])
        assert box.boundary_distance([1.0, 5.0]) == 1.0
        assert box.boundary_distance([5.0, 9.5]) == 0.5

    def test_boundary_distance_outside_is_euclidean(self):
        box = BoxRegion([0.0, 0.0], [10.0, 10.0])
        assert box.boundary_distance([13.0, 14.0]) == 5.0  # 3-4-5 corner

    def test_dimension(self):
        assert BoxRegion([0, 0, 0], [1, 1, 1]).dimension == 3


class TestBallRegion:
    def test_contains_closed(self):
        ball = BallRegion([0.0, 0.0], 5.0)
        assert ball.contains([3.0, 4.0])  # exactly on the boundary
        assert ball.contains([0.0, 0.0])
        assert not ball.contains([3.1, 4.0])

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            BallRegion([0.0], -1.0)

    def test_boundary_distance(self):
        ball = BallRegion([0.0, 0.0], 5.0)
        assert ball.boundary_distance([0.0, 0.0]) == 5.0
        assert ball.boundary_distance([3.0, 4.0]) == 0.0
        assert ball.boundary_distance([6.0, 8.0]) == 5.0

    @given(points_2d)
    def test_membership_matches_norm(self, point):
        ball = BallRegion([100.0, -50.0], 250.0)
        expected = np.linalg.norm(point - np.array([100.0, -50.0])) <= 250.0
        assert ball.contains(point) == expected

    def test_contains_many(self):
        ball = BallRegion([0.0, 0.0], 1.0)
        points = np.array([[0.0, 0.5], [2.0, 0.0]])
        np.testing.assert_array_equal(
            ball.contains_many(points), [True, False]
        )


class TestSilencers:
    @given(points_2d)
    def test_all_space_holds_every_point(self, a):
        assert ALL_SPACE.contains(a)  # so membership never flips

    @given(points_2d)
    def test_empty_region_holds_no_point(self, a):
        assert not EMPTY_REGION.contains(a)

    def test_silencing_flags(self):
        assert ALL_SPACE.is_silencing
        assert EMPTY_REGION.is_silencing
        assert not BoxRegion([0.0], [1.0]).is_silencing
        assert not BallRegion([0.0], 1.0).is_silencing

    def test_boundary_distances_infinite(self):
        assert ALL_SPACE.boundary_distance(np.zeros(2)) == math.inf
        assert EMPTY_REGION.boundary_distance(np.zeros(2)) == math.inf
