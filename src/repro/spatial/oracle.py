"""Ground truth for vector-valued streams."""

from __future__ import annotations

import numpy as np

from repro.correctness.oracle import Oracle


class SpatialOracle(Oracle):
    """Tracks the true point of every stream: the scalar oracle over an
    ``(n, d)`` payload matrix (a query's ``matches`` takes a point, its
    ``matches_array`` / ``distance_array`` the matrix)."""

    payload_ndim = 2

    @property
    def points(self) -> np.ndarray:
        return self.values
