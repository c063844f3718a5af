"""Unit + property tests for rank functions."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.queries.knn import KnnQuery, TopKQuery
from repro.queries.rank import (
    rank_of,
    ranked_ids,
    ranks_in,
    top_ranked,
    true_knn_answer,
)

values_strategy = st.lists(
    st.floats(-1e6, 1e6, allow_nan=False), min_size=2, max_size=30
)


def brute_force_rank(query, stream_id, values):
    """Reference rank: 1 + number of streams beating stream_id."""
    mine = query.distance(values[stream_id])
    beats = 0
    for other, value in enumerate(values):
        d = query.distance(value)
        if d < mine or (d == mine and other < stream_id):
            beats += 1
    return beats + 1


def test_ranked_ids_simple():
    query = KnnQuery(q=0.0, k=1)
    values = np.array([5.0, -1.0, 3.0])
    assert list(ranked_ids(query, values)) == [1, 2, 0]


def test_rank_of_with_ties_breaks_by_id():
    query = KnnQuery(q=0.0, k=1)
    values = np.array([2.0, -2.0, 2.0])  # all distance 2
    assert rank_of(query, 0, values) == 1
    assert rank_of(query, 1, values) == 2
    assert rank_of(query, 2, values) == 3


def test_rank_of_out_of_range_raises():
    query = KnnQuery(q=0.0, k=1)
    with pytest.raises(IndexError):
        rank_of(query, 5, np.array([1.0]))


@given(values_strategy, st.data())
def test_rank_of_matches_brute_force(values, data):
    query = KnnQuery(q=0.0, k=1)
    stream_id = data.draw(st.integers(0, len(values) - 1))
    array = np.array(values)
    assert rank_of(query, stream_id, array) == brute_force_rank(
        query, stream_id, values
    )


@given(values_strategy)
def test_ranks_are_a_permutation(values):
    query = TopKQuery(k=1)
    array = np.array(values)
    ranks = [rank_of(query, i, array) for i in range(len(values))]
    assert sorted(ranks) == list(range(1, len(values) + 1))


@given(values_strategy, st.integers(1, 10))
def test_true_knn_answer_matches_ranked_prefix(values, k):
    query = KnnQuery(q=100.0, k=k)
    array = np.array(values)
    expected = frozenset(int(i) for i in ranked_ids(query, array)[:k])
    assert true_knn_answer(query, array) == expected


@given(values_strategy, st.integers(1, 5))
def test_answer_members_rank_at_most_k(values, k):
    query = KnnQuery(q=0.0, k=k)
    array = np.array(values)
    answer = true_knn_answer(query, array)
    assert len(answer) == min(k, len(values))
    for member in answer:
        assert rank_of(query, member, array) <= k


def test_true_knn_answer_tie_at_threshold():
    query = KnnQuery(q=0.0, k=2)
    values = np.array([1.0, -1.0, 1.0])  # distances 1, 1, 1
    assert true_knn_answer(query, values) == frozenset({0, 1})


def test_top_ranked_returns_best_first():
    query = TopKQuery(k=1)
    values = np.array([10.0, 30.0, 20.0])
    assert top_ranked(query, values, 2) == [1, 2]


@given(
    st.lists(st.integers(-3, 3).map(float), min_size=1, max_size=30),
    st.data(),
)
def test_ranks_in_is_the_stable_sort_position(values, data):
    """Counted ranks of any id subset — ties (few distinct values) broken
    by id — are each id's 1-based position in the stable argsort."""
    query = KnnQuery(q=0.5, k=1)
    array = np.array(values)
    ids = data.draw(st.lists(st.integers(0, len(values) - 1), max_size=8))
    positions = np.empty(len(values), dtype=np.int64)
    positions[ranked_ids(query, array)] = np.arange(1, len(values) + 1)
    ranks = ranks_in(query.distance_array(array), ids)
    assert ranks.tolist() == positions[ids].tolist()
