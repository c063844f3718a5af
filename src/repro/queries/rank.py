"""Rank functions over the current value vector.

``rank(S_i, t)`` (Section 3.3) is the 1-based position of stream ``S_i``
in the total order induced by the query's distance, with ties broken by
stream id so that the order — and hence every protocol decision and
correctness check — is deterministic.
"""

from __future__ import annotations

import numpy as np

from repro.queries.base import RankBasedQuery


def ranked_ids(query: RankBasedQuery, values: np.ndarray) -> np.ndarray:
    """Stream ids sorted best-first under *query*'s distance.

    Ties in distance are broken by ascending stream id (lexicographic sort
    on ``(distance, id)``), matching the convention used throughout the
    library.
    """
    distances = query.distance_array(np.asarray(values, dtype=np.float64))
    # np.argsort with kind="stable" on distances breaks ties by index,
    # which *is* ascending stream id.
    return np.argsort(distances, kind="stable")


def rank_of(query: RankBasedQuery, stream_id: int, values: np.ndarray) -> int:
    """1-based rank of *stream_id* under *query* (1 = best).

    A stream's rank is one plus the number of streams that beat it, where
    "beats" means strictly smaller distance, or equal distance and smaller
    id.
    """
    values = np.asarray(values, dtype=np.float64)
    if not 0 <= stream_id < len(values):
        raise IndexError(f"stream id {stream_id} out of range")
    return int(ranks_in(query.distance_array(values), [stream_id])[0])


def ranks_in(distances: np.ndarray, stream_ids) -> np.ndarray:
    """The 1-based ranks of *stream_ids* in the ``(distance, id)`` order
    of the *distances* column: :func:`rank_of`'s rule, counted for all
    the ids at once — no sort."""
    ids = np.asarray(stream_ids, dtype=np.int64)[:, None]
    mine = distances[ids]
    closer = np.count_nonzero(distances < mine, axis=1)
    tied = (distances == mine) & (np.arange(len(distances)) < ids)
    return closer + np.count_nonzero(tied, axis=1) + 1


def top_mask(distances: np.ndarray, count: int) -> np.ndarray:
    """Boolean column of the *count* best streams (deterministic ties).

    Exactly the first *count* ids of the stable argsort of *distances*,
    in O(n): every stream strictly inside the ``count``-th smallest
    distance, then the lowest ids tied at it until the column holds
    *count* members (``flatnonzero`` is ascending, i.e. the id order).
    """
    if count >= len(distances):
        return np.ones(len(distances), dtype=bool)
    threshold = np.partition(distances, count - 1)[count - 1]
    mask = distances < threshold
    tied = np.flatnonzero(distances == threshold)
    mask[tied[: count - np.count_nonzero(mask)]] = True
    return mask


def true_knn_answer(query: RankBasedQuery, values: np.ndarray) -> frozenset[int]:
    """The exact k-best answer set under *query* (deterministic ties)."""
    distances = query.distance_array(np.asarray(values, dtype=np.float64))
    return frozenset(np.flatnonzero(top_mask(distances, query.k)).tolist())


def top_ranked(
    query: RankBasedQuery, values: np.ndarray, count: int
) -> list[int]:
    """The *count* best stream ids, best-first (deterministic ties)."""
    order = ranked_ids(query, values)
    return [int(i) for i in order[:count]]
