"""k-NN queries and their k-min / k-max transforms.

A k-NN query returns the ``k`` streams whose values lie closest to a query
point ``q`` (Section 3.2).  The paper notes that a k-NN query "can be
easily transformed to a k-minimum or k-maximum query, by setting q to -inf
or +inf"; since infinite arithmetic degenerates numerically, the
transforms are realized by substituting the ranking key (``value`` for
k-min, ``-value`` for k-max) — order-isomorphic to the limit and exact in
floating point.
"""

from __future__ import annotations

import math

import numpy as np

from repro.queries.base import RankBasedQuery


class KnnQuery(RankBasedQuery):
    """k nearest neighbours of a finite query point ``q`` on the line.

    The ranking key of a stream with value ``v`` is ``|v - q|``.
    """

    def __init__(self, q: float, k: int) -> None:
        super().__init__(k)
        if math.isnan(q) or math.isinf(q):
            raise ValueError(
                "q must be finite; use TopKQuery / KMinQuery for q = ±inf"
            )
        self.q = float(q)

    def distance(self, value: float) -> float:
        return abs(value - self.q)

    def distance_array(self, values: np.ndarray) -> np.ndarray:
        return np.abs(values - self.q)

    def interval(self, threshold: float) -> tuple[float, float]:
        return (self.q - threshold, self.q + threshold)

    def __repr__(self) -> str:
        return f"KnnQuery(q={self.q}, k={self.k})"


class TopKQuery(RankBasedQuery):
    """k-maximum query: the ``q -> +inf`` limit of a k-NN query."""

    def distance(self, value: float) -> float:
        return -value

    def distance_array(self, values: np.ndarray) -> np.ndarray:
        return -values

    def interval(self, threshold: float) -> tuple[float, float]:
        # distance(v) = -v <= t  <=>  v >= -t
        return (-threshold, math.inf)

    def __repr__(self) -> str:
        return f"TopKQuery(k={self.k})"


class KMinQuery(RankBasedQuery):
    """k-minimum query: the ``q -> -inf`` limit of a k-NN query."""

    def distance(self, value: float) -> float:
        return value

    def distance_array(self, values: np.ndarray) -> np.ndarray:
        return np.asarray(values, dtype=np.float64)

    def interval(self, threshold: float) -> tuple[float, float]:
        # distance(v) = v <= t  <=>  v <= t
        return (-math.inf, threshold)

    def __repr__(self) -> str:
        return f"KMinQuery(k={self.k})"
