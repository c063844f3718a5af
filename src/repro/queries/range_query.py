"""Range queries: the paper's running non-rank-based example.

"A range query is specified by an interval [l, u].  Streams whose values
fall within [l, u] should be returned to the user." (Section 3.2)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.queries.base import NonRankBasedQuery
from repro.streams.filters import FilterConstraint


@dataclass(frozen=True)
class RangeQuery(NonRankBasedQuery):
    """A closed-interval query ``[lower, upper]`` over stream values."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if math.isnan(self.lower) or math.isnan(self.upper):
            raise ValueError("range bounds must not be NaN")
        if self.lower > self.upper:
            raise ValueError(
                f"invalid range [{self.lower}, {self.upper}]"
            )

    def matches(self, value: float) -> bool:
        return self.lower <= value <= self.upper

    def matches_array(self, values: np.ndarray) -> np.ndarray:
        return (values >= self.lower) & (values <= self.upper)

    @property
    def width(self) -> float:
        return self.upper - self.lower

    @property
    def bound(self) -> FilterConstraint:
        """The range as the filter constraint the protocols deploy."""
        return FilterConstraint(self.lower, self.upper)
