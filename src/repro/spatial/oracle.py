"""Ground truth for vector-valued streams."""

from __future__ import annotations

import numpy as np

from repro.spatial.queries import SpatialKnnQuery, SpatialRangeQuery


class SpatialOracle:
    """Tracks the true point of every stream."""

    def __init__(self, initial_points: np.ndarray) -> None:
        self._points = np.asarray(initial_points, dtype=np.float64).copy()
        if self._points.ndim != 2:
            raise ValueError("initial_points must be an (n, d) matrix")

    @property
    def points(self) -> np.ndarray:
        view = self._points.view()
        view.flags.writeable = False
        return view

    def register_query(
        self, query: SpatialRangeQuery | SpatialKnnQuery
    ) -> None:
        """Validate *query* before the first check instead of at it
        (truth is computed on demand; nothing is tracked per query)."""
        if not callable(getattr(query, "true_answer", None)):
            raise TypeError(f"unsupported query type {type(query)!r}")

    def apply(self, stream_id: int, point: np.ndarray) -> None:
        self._points[stream_id] = point

    def true_answer(
        self, query: SpatialRangeQuery | SpatialKnnQuery
    ) -> frozenset[int]:
        return query.true_answer(self._points)
