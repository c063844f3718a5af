"""Filter constraints and their violation semantics (Section 3.1).

A filter constraint is a closed interval ``[l, u]``.  Let ``V'`` be the
last value the server knows for the stream and ``V`` the stream's current
value.  The constraint is *violated* — and only then is an update sent —
iff exactly one of ``V'`` and ``V`` lies inside the interval:

    (V' in [l,u] and V not in [l,u])  or  (V' not in [l,u] and V in [l,u])

Two degenerate constraints implement the "shut-down" filters of Section 5:

* ``FALSE_POSITIVE_FILTER`` = ``[-inf, +inf]``: every value is inside, so
  membership never flips and the stream stays silent;
* ``FALSE_NEGATIVE_FILTER`` = ``[+inf, +inf]``: only ``+inf`` is inside, so
  for finite data the stream likewise stays silent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FilterConstraint:
    """A closed-interval filter constraint ``[lower, upper]``."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if math.isnan(self.lower) or math.isnan(self.upper):
            raise ValueError("filter bounds must not be NaN")
        if self.lower > self.upper:
            raise ValueError(
                f"invalid filter interval [{self.lower}, {self.upper}]"
            )

    def contains(self, value: float) -> bool:
        """Closed-interval membership test."""
        return self.lower <= value <= self.upper

    @property
    def is_false_positive_filter(self) -> bool:
        """True for the all-enclosing ``[-inf, +inf]`` shut-down filter."""
        return math.isinf(self.lower) and self.lower < 0 and math.isinf(self.upper)

    @property
    def is_false_negative_filter(self) -> bool:
        """True for the empty-for-finite-data ``[+inf, +inf]`` filter."""
        return math.isinf(self.lower) and self.lower > 0

    @property
    def is_silencing(self) -> bool:
        """True if the filter can never be violated by finite data."""
        return self.is_false_positive_filter or self.is_false_negative_filter

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def distance_to(self, value: float) -> float:
        """Distance from *value* to the interval (0 if inside).

        Used by the boundary-nearest selection heuristic (Fig. 14): for a
        value inside, callers may instead want :meth:`boundary_distance`.
        """
        if value < self.lower:
            return self.lower - value
        if value > self.upper:
            return value - self.upper
        return 0.0

    def boundary_distance(self, value: float) -> float:
        """Distance from *value* to the nearest interval endpoint.

        For values inside the interval this measures how close the stream
        is to *leaving* it; for values outside, how close it is to
        *entering*.  Either way, smaller means "more likely to cross soon",
        which is exactly what boundary-nearest selection wants.
        """
        if self.is_silencing:
            return math.inf
        if self.contains(value):
            return min(value - self.lower, self.upper - value)
        return self.distance_to(value)

    def boundary_distances(self, values: np.ndarray) -> np.ndarray:
        """:meth:`boundary_distance` of each value of a column, bitwise
        (the same comparisons and subtractions, elementwise)."""
        values = np.asarray(values, dtype=np.float64)
        if self.is_silencing:
            return np.full(values.shape, math.inf)
        low, up = self.lower, self.upper
        rest = np.where(values > up, values - up, np.minimum(values - low, up - values))
        return np.where(values < low, low - values, rest)


FALSE_POSITIVE_FILTER = FilterConstraint(-math.inf, math.inf)
FALSE_NEGATIVE_FILTER = FilterConstraint(math.inf, math.inf)
