"""Abstract query classes.

The split between rank-based and non-rank-based queries mirrors
Section 3.2: a non-rank-based query can evaluate each stream in isolation
(``matches``), while a rank-based query needs the full value vector to
establish the partial order (``true_answer`` / ``rank``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.streams.filters import FilterConstraint


class EntityQuery(ABC):
    """A standing query whose answer is a set of stream identifiers."""

    @abstractmethod
    def true_answer(self, values: np.ndarray) -> frozenset[int]:
        """The exact answer set given the true value of every stream.

        ``values[i]`` is the current value of stream ``i``.
        """

    @property
    @abstractmethod
    def is_rank_based(self) -> bool:
        """Whether answer membership depends on other streams' values."""


class NonRankBasedQuery(EntityQuery):
    """A query decidable per-stream (Section 3.2, class 2)."""

    @abstractmethod
    def matches(self, value: float) -> bool:
        """Whether a stream holding *value* satisfies the query."""

    def true_answer(self, values: np.ndarray) -> frozenset[int]:
        values = np.asarray(values, dtype=np.float64)
        matches = self.matches_array(values)
        return frozenset(int(i) for i in np.nonzero(matches)[0])

    def matches_array(self, values: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`matches`; subclasses may override for speed."""
        return np.fromiter(
            (self.matches(float(v)) for v in values),
            dtype=bool,
            count=len(values),
        )

    @property
    def is_rank_based(self) -> bool:
        return False


class RankBasedQuery(EntityQuery):
    """A query over a partial order of stream values (Section 3.2, class 1).

    The order is induced by a per-stream *distance*; smaller distances rank
    higher (rank 1 is best).  Ties are broken by stream id so that ranks
    are total and deterministic.
    """

    def __init__(self, k: int) -> None:
        if k <= 0:
            raise ValueError("rank requirement k must be positive")
        self.k = int(k)

    @abstractmethod
    def distance(self, value: float) -> float:
        """The ranking key of a stream holding *value* (smaller is better)."""

    @abstractmethod
    def interval(self, threshold: float) -> tuple[float, float]:
        """The value-space interval ``{v : distance(v) <= threshold}``:
        ``[q - d, q + d]`` for a k-NN query, a half-line for the k-min /
        k-max transforms."""

    def region(self, threshold: float, enclosing=()) -> FilterConstraint:
        """The bound ``R`` the rank-based protocols deploy: :meth:`interval`
        as a filter constraint, widened to contain the *enclosing* values.

        Every value within *threshold* is inside by definition, but
        ``interval`` round-trips the threshold through ``q ± threshold``,
        whose rounding can exclude a value at distance *exactly*
        threshold by an ulp (observed: value 42.6416434 against a
        computed lower bound 42.64164340000002).  A protocol that
        believes such a stream inside ``R`` while its source knows
        itself outside never hears of it again — membership never
        flips, so no report corrects the divergence.  Passing the values
        that must be members closes the hole; when the rounding is kind
        the widening moves nothing.
        """
        lower, upper = self.interval(threshold)
        values = np.asarray(enclosing, dtype=np.float64)
        if values.size:
            lower = min(lower, values.min())
            upper = max(upper, values.max())
        return FilterConstraint(float(lower), float(upper))

    def distance_array(self, values: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`distance`; subclasses may override for speed."""
        return np.fromiter(
            (self.distance(float(v)) for v in values),
            dtype=np.float64,
            count=len(values),
        )

    def rank_keys(self, values: np.ndarray) -> np.ndarray:
        """The key column a protocol's rank view orders by: per row
        bitwise :meth:`distance`, which :meth:`distance_array` is."""
        return self.distance_array(values)

    def true_answer(self, values: np.ndarray) -> frozenset[int]:
        from repro.queries.rank import true_knn_answer

        return true_knn_answer(self, np.asarray(values, dtype=np.float64))

    def rank(self, stream_id: int, values: np.ndarray) -> int:
        from repro.queries.rank import rank_of

        return rank_of(self, stream_id, np.asarray(values, dtype=np.float64))

    @property
    def is_rank_based(self) -> bool:
        return True
