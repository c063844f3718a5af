"""The ground-truth oracle.

Holds the true current payload of every stream — a scalar, or a point
for the spatial stack — updated as the harness applies trace records,
and answers "what is the exact answer set right now?" for any
entity-based query, as a boolean **truth column** over stream ids
(DESIGN.md §14).  A registered membership query's column is maintained
incrementally (one scalar write per update); rank truth — for the
oracle and the checker alike — is an O(n) partition on demand.
"""

from __future__ import annotations

import numpy as np

from repro.queries.rank import top_mask


def _is_rank_based(query) -> bool:
    kind = getattr(query, "is_rank_based", None)
    if not isinstance(kind, bool):
        raise TypeError(f"unsupported query type {type(query)!r}")
    return kind


class Oracle:
    """Ground-truth view of all stream values."""

    #: Dimensionality of the payload array: ``(n,)`` scalars.
    payload_ndim = 1

    def __init__(self, initial_values: np.ndarray) -> None:
        self._values = np.asarray(initial_values, dtype=np.float64).copy()
        if self._values.ndim != self.payload_ndim:
            raise ValueError(
                f"initial payloads must be {self.payload_ndim}-dimensional"
            )
        # Keyed by the query *value*: equal frozen queries share one
        # entry, and the key keeps an identity-hashed query alive, so a
        # recycled ``id`` can never alias a dead one.  A membership
        # query maps to its truth column, a rank query to ``None``
        # (registered up front only to validate support before the
        # first check instead of at it).
        self._registered: dict[object, np.ndarray | None] = {}

    @property
    def n_streams(self) -> int:
        return len(self._values)

    @property
    def values(self) -> np.ndarray:
        """Read-only view of the true payload array."""
        view = self._values.view()
        view.flags.writeable = False
        return view

    def value_of(self, stream_id: int) -> float:
        return float(self._values[stream_id])

    def register_query(self, query) -> None:
        """Register any supported query for truth maintenance.

        Membership (non-rank) queries get a truth column written once
        per update; rank queries are validated and tracked, with truth
        computed on demand at check time.  Unsupported types raise
        immediately instead of failing at the first check.
        """
        if query in self._registered:
            return
        self._registered[query] = (
            None
            if _is_rank_based(query)
            else np.array(query.matches_array(self._values), dtype=bool)
        )

    @property
    def registered_queries(self) -> list:
        """Every query registered with this oracle."""
        return list(self._registered)

    def apply(self, stream_id: int, value) -> None:
        """Record that *stream_id* now holds *value*."""
        self._values[stream_id] = value
        for query, column in self._registered.items():
            if column is not None:
                column[stream_id] = query.matches(value)

    def apply_many(self, stream_ids, payloads) -> None:
        """Record the time-ordered updates ``(stream_ids, payloads)`` at
        once: each stream ends at its last payload (later rows win,
        ``tests/state/test_scatter_order.py``)."""
        self._values[stream_ids] = payloads
        for query, column in self._registered.items():
            if column is not None:
                column[stream_ids] = query.matches_array(payloads)

    def truth_mask(self, query) -> np.ndarray:
        """``T(t)`` of *query* as a boolean column over stream ids.

        Read it, never write it: a registered membership query's column
        is the live one.
        """
        column = self._registered.get(query)
        if column is not None:
            return column
        if _is_rank_based(query):
            return top_mask(query.distance_array(self._values), query.k)
        return query.matches_array(self._values)

    def true_answer(self, query) -> frozenset[int]:
        """The exact answer set of *query* for the current values."""
        return frozenset(np.flatnonzero(self.truth_mask(query)).tolist())
