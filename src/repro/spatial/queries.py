"""Entity-based queries over vector-valued streams."""

from __future__ import annotations

import numpy as np

from repro.spatial.geometry import BallRegion, BoxRegion, as_point


class SpatialRangeQuery:
    """A box range query: streams whose points fall in *box* qualify."""

    def __init__(self, box: BoxRegion) -> None:
        #: The box — under the name the protocols read the bound by.
        self.box = self.bound = box

    @property
    def dimension(self) -> int:
        return self.box.dimension

    def matches(self, point: np.ndarray) -> bool:
        return self.box.contains(point)

    def matches_array(self, points: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`matches` over an ``(n, d)`` matrix."""
        return self.box.contains_many(points)

    def true_answer(self, points: np.ndarray) -> frozenset[int]:
        """Exact answer given the ``(n, d)`` matrix of true points."""
        return frozenset(np.flatnonzero(self.matches_array(points)).tolist())

    @property
    def is_rank_based(self) -> bool:
        return False

    def __repr__(self) -> str:
        return f"SpatialRangeQuery({self.box!r})"


class SpatialKnnQuery:
    """Euclidean k-NN around a query point ``q`` in d dimensions."""

    def __init__(self, q, k: int) -> None:
        self.q = as_point(q)
        if k <= 0:
            raise ValueError("k must be positive")
        self.k = int(k)

    @property
    def dimension(self) -> int:
        return len(self.q)

    def distance(self, point: np.ndarray) -> float:
        return float(np.linalg.norm(np.asarray(point, dtype=np.float64) - self.q))

    def distance_array(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=np.float64)
        return np.linalg.norm(points - self.q, axis=1)

    def rank_keys(self, points: np.ndarray) -> np.ndarray:
        """The key column a protocol's rank view orders by: per row
        bitwise :meth:`distance`.  :meth:`distance_array` is not — its
        axis-wise norm may differ from the per-point norm by an ulp
        (BLAS dot vs. pairwise reduce), which would reorder near-ties
        against the ``distance`` values the protocols compare."""
        return np.fromiter(
            map(self.distance, points), dtype=np.float64, count=len(points)
        )

    def region(self, threshold: float, enclosing=()) -> BallRegion:
        """The ball ``{p : |p - q| <= threshold}`` — the bound ``R``.
        Membership *is* ``distance(p) <= threshold``, so every point
        within the threshold is inside with nothing to widen."""
        return BallRegion(self.q, threshold)

    def ranked_ids(self, points: np.ndarray) -> np.ndarray:
        """Ids sorted by (distance, id) — deterministic rank order."""
        return np.argsort(self.distance_array(points), kind="stable")

    def true_answer(self, points: np.ndarray) -> frozenset[int]:
        return frozenset(int(i) for i in self.ranked_ids(points)[: self.k])

    def rank_of(self, stream_id: int, points: np.ndarray) -> int:
        """1-based true rank with (distance, id) tie-breaking."""
        distances = self.distance_array(points)
        mine = distances[stream_id]
        closer = int(np.count_nonzero(distances < mine))
        tied_before = int(np.count_nonzero(distances[:stream_id] == mine))
        return closer + tied_before + 1

    @property
    def is_rank_based(self) -> bool:
        return True

    def __repr__(self) -> str:
        return f"SpatialKnnQuery(q={self.q.tolist()}, k={self.k})"
