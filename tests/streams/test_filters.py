"""Unit + property tests for filter-constraint semantics (Section 3.1)."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.network.accounting import MessageLedger
from repro.network.channel import Channel
from repro.network.messages import ConstraintMessage
from repro.streams.filters import (
    FALSE_NEGATIVE_FILTER,
    FALSE_POSITIVE_FILTER,
    FilterConstraint,
)
from repro.streams.source import StreamSource

finite = st.floats(-1e9, 1e9, allow_nan=False, allow_infinity=False)


def violated_by(constraint, last_reported, current) -> bool:
    """Whether a source the server last heard at *last_reported* under
    *constraint* reports *current*: the Section 3.1 rule as a source
    applies it."""
    received = []
    channel = Channel(MessageLedger())
    channel.bind_server(received.append)
    source = StreamSource(0, last_reported, channel)
    channel.send_to_source(
        ConstraintMessage(0, 0.0, constraint.lower, constraint.upper)
    )
    source.apply(current, 1.0)
    return bool(received)


class TestContains:
    def test_closed_interval_includes_endpoints(self):
        constraint = FilterConstraint(1.0, 2.0)
        assert constraint.contains(1.0)
        assert constraint.contains(2.0)
        assert constraint.contains(1.5)
        assert not constraint.contains(0.999)
        assert not constraint.contains(2.001)

    def test_degenerate_point_interval(self):
        constraint = FilterConstraint(5.0, 5.0)
        assert constraint.contains(5.0)
        assert not constraint.contains(5.0001)

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            FilterConstraint(2.0, 1.0)

    def test_nan_bounds_rejected(self):
        with pytest.raises(ValueError):
            FilterConstraint(math.nan, 1.0)
        with pytest.raises(ValueError):
            FilterConstraint(0.0, math.nan)


class TestViolation:
    def test_crossing_out_violates(self):
        constraint = FilterConstraint(10.0, 20.0)
        assert violated_by(constraint, last_reported=15.0, current=25.0)

    def test_crossing_in_violates(self):
        constraint = FilterConstraint(10.0, 20.0)
        assert violated_by(constraint, last_reported=5.0, current=12.0)

    def test_staying_inside_does_not_violate(self):
        constraint = FilterConstraint(10.0, 20.0)
        assert not violated_by(constraint, 11.0, 19.0)

    def test_staying_outside_does_not_violate(self):
        constraint = FilterConstraint(10.0, 20.0)
        assert not violated_by(constraint, 5.0, 100.0)  # jumps across!

    @given(finite, finite)
    def test_violation_is_symmetric_in_membership_flip(self, a, b):
        constraint = FilterConstraint(10.0, 20.0)
        assert violated_by(constraint, a, b) == violated_by(constraint, b, a)

    @given(finite)
    def test_no_self_violation(self, value):
        constraint = FilterConstraint(-5.0, 5.0)
        assert not violated_by(constraint, value, value)

    @given(finite, finite)
    def test_violation_definition(self, last, current):
        """violated <=> exactly one of the two values is inside."""
        constraint = FilterConstraint(-1.0, 1.0)
        expected = constraint.contains(last) != constraint.contains(current)
        assert violated_by(constraint, last, current) == expected


class TestDegenerateFilters:
    @given(finite, finite)
    def test_false_positive_filter_never_violated(self, last, current):
        assert not violated_by(FALSE_POSITIVE_FILTER, last, current)

    @given(finite, finite)
    def test_false_negative_filter_never_violated(self, last, current):
        assert not violated_by(FALSE_NEGATIVE_FILTER, last, current)

    def test_classification_flags(self):
        assert FALSE_POSITIVE_FILTER.is_false_positive_filter
        assert not FALSE_POSITIVE_FILTER.is_false_negative_filter
        assert FALSE_NEGATIVE_FILTER.is_false_negative_filter
        assert not FALSE_NEGATIVE_FILTER.is_false_positive_filter
        assert FALSE_POSITIVE_FILTER.is_silencing
        assert FALSE_NEGATIVE_FILTER.is_silencing
        assert not FilterConstraint(0.0, 1.0).is_silencing

    def test_half_line_is_not_silencing(self):
        assert not FilterConstraint(-math.inf, 3.0).is_silencing
        assert not FilterConstraint(3.0, math.inf).is_silencing


class TestDistances:
    def test_distance_to_interval(self):
        constraint = FilterConstraint(10.0, 20.0)
        assert constraint.distance_to(5.0) == 5.0
        assert constraint.distance_to(25.0) == 5.0
        assert constraint.distance_to(15.0) == 0.0

    def test_boundary_distance_inside(self):
        constraint = FilterConstraint(10.0, 20.0)
        assert constraint.boundary_distance(12.0) == 2.0
        assert constraint.boundary_distance(19.0) == 1.0
        assert constraint.boundary_distance(15.0) == 5.0

    def test_boundary_distance_outside(self):
        constraint = FilterConstraint(10.0, 20.0)
        assert constraint.boundary_distance(7.0) == 3.0
        assert constraint.boundary_distance(24.0) == 4.0

    def test_boundary_distance_of_silencing_filter_is_infinite(self):
        assert FALSE_POSITIVE_FILTER.boundary_distance(0.0) == math.inf

    @given(finite)
    def test_boundary_distance_nonnegative(self, value):
        constraint = FilterConstraint(-3.0, 7.0)
        assert constraint.boundary_distance(value) >= 0.0

    def test_width(self):
        assert FilterConstraint(2.0, 12.0).width == 10.0
