"""The columnar evaluator against the set-based reference (DESIGN.md §14).

``violation_reason`` judges a boolean answer column against the oracle's
truth column; the reference is the public set-based API the checker used
before — ``RankTolerance.violation``, ``FractionTolerance.violation`` and
the exact-match formula over Python sets.  Hypothesis draws value
vectors from a *small* pool (so values, and hence distances, tie — also
across rank ``k + r``), arbitrary answer masks (``|A| != k``, empty
``A``) and queries that may match nothing (empty ``T``); the two must
return the same reason string or both ``None``, for scalars and points.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.correctness.checker import violation_reason
from repro.correctness.oracle import Oracle
from repro.queries.knn import KMinQuery, KnnQuery, TopKQuery
from repro.queries.range_query import RangeQuery
from repro.queries.rank import ranked_ids, top_mask
from repro.spatial.geometry import BoxRegion
from repro.spatial.oracle import SpatialOracle
from repro.spatial.queries import SpatialKnnQuery, SpatialRangeQuery
from repro.tolerance.fraction_tolerance import FractionTolerance
from repro.tolerance.rank_tolerance import RankTolerance
from set_based_reference import reference_reason

#: Few distinct coordinates: most vectors hold duplicates, so distance
#: ties (|v - 4| pairs 3 with 5, 2 with 6, ...) straddle every rank.
POOL = [0.0, 2.0, 3.0, 4.0, 5.0, 6.0, 9.0]

coordinates = st.sampled_from(POOL)
fractions = st.sampled_from([0.0, 0.1, 0.25, 0.4, 0.49])


@st.composite
def scalar_cases(draw):
    n = draw(st.integers(1, 12))
    values = np.array(draw(st.lists(coordinates, min_size=n, max_size=n)))
    k = draw(st.integers(1, n))
    rank_query = draw(
        st.sampled_from(
            [KnnQuery(q=4.0, k=k), TopKQuery(k=k), KMinQuery(k=k)]
        )
    )
    low = draw(coordinates)
    range_query = RangeQuery(low, low + draw(st.sampled_from([0.0, 1.0, 3.0])))
    return Oracle(values), rank_query, range_query


@st.composite
def spatial_cases(draw):
    n = draw(st.integers(1, 12))
    points = np.array(
        draw(
            st.lists(
                st.tuples(coordinates, coordinates), min_size=n, max_size=n
            )
        )
    )
    k = draw(st.integers(1, n))
    low = draw(coordinates)
    side = draw(st.sampled_from([0.0, 1.0, 3.0]))
    box = BoxRegion([low, low], [low + side, low + side])
    return (
        SpatialOracle(points),
        SpatialKnnQuery(q=[4.0, 4.0], k=k),
        SpatialRangeQuery(box),
    )


@st.composite
def judged(draw, cases):
    """(oracle, query, tolerance, answer mask) over one drawn case."""
    oracle, rank_query, range_query = draw(cases)
    n = oracle.n_streams
    kind = draw(st.sampled_from(["rank", "fraction", "exact"]))
    if kind == "rank":
        query = rank_query
        tolerance = RankTolerance(k=query.k, r=draw(st.integers(0, 3)))
    else:
        # Fraction / exact checking runs over range *and* k-NN queries
        # (FT-RP, ZT-RP).
        query = draw(st.sampled_from([rank_query, range_query]))
        tolerance = (
            FractionTolerance(draw(fractions), draw(fractions))
            if kind == "fraction"
            else None
        )
    # Start from the truth or from scratch, then flip arbitrary rows:
    # near-correct answers reach the straggler / fraction branches that
    # a uniformly random mask would almost never pass the size check for.
    if draw(st.booleans()):
        mask = oracle.truth_mask(query).copy()
    else:
        mask = np.zeros(n, dtype=bool)
    for row in draw(st.lists(st.integers(0, n - 1), max_size=4)):
        mask[row] = not mask[row]
    if kind == "rank" and draw(st.booleans()):
        # Exactly k arbitrary members: past the size clause, so the
        # verdict turns on who sits inside the tied top k + r.
        members = st.lists(
            st.integers(0, n - 1), min_size=query.k, max_size=query.k,
            unique=True,
        )
        mask = np.zeros(n, dtype=bool)
        mask[draw(members)] = True
    return oracle, query, tolerance, mask


def assert_matches_reference(case):
    oracle, query, tolerance, mask = case
    answer = set(np.flatnonzero(mask).tolist())
    assert violation_reason(mask, oracle, query, tolerance) == reference_reason(
        answer, oracle, query, tolerance
    )


@settings(max_examples=400, deadline=None)
@given(judged(scalar_cases()))
def test_scalar_columns_return_the_reference_reason(case):
    assert_matches_reference(case)


@settings(max_examples=400, deadline=None)
@given(judged(spatial_cases()))
def test_point_columns_return_the_reference_reason(case):
    assert_matches_reference(case)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(coordinates, min_size=1, max_size=14),
    st.integers(1, 16),
)
def test_top_mask_is_the_stable_argsort_prefix(values, count):
    """Partition threshold + ascending-id tie fill == the first *count*
    ids of the (distance, id) order, ties at the cut included."""
    query = KnnQuery(q=4.0, k=1)
    values = np.array(values)
    prefix = ranked_ids(query, values)[:count]
    mask = top_mask(query.distance_array(values), count)
    assert set(np.flatnonzero(mask).tolist()) == set(prefix.tolist())


def test_a_tie_straddling_rank_eps_admits_the_lower_id_only():
    # Distances from 4: [1, 1, 1, 5]; k + r = 2 admits ids 0 and 1 of
    # the three-way tie, so answering {2} is a straggler and {1} is not.
    oracle = Oracle(np.array([3.0, 5.0, 3.0, 9.0]))
    query = KnnQuery(q=4.0, k=1)
    tolerance = RankTolerance(k=1, r=1)
    ok = np.array([False, True, False, False])
    bad = np.array([False, False, True, False])
    assert violation_reason(ok, oracle, query, tolerance) is None
    assert violation_reason(bad, oracle, query, tolerance) == (
        "stream 2 ranks worse than eps = 2 "
        "(admissible top-2 set excludes it)"
    )


# ----------------------------------------------------------------------
# The incremental-truth invariant
# ----------------------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(
    scalar_cases(),
    st.lists(st.tuples(st.integers(0, 11), coordinates), max_size=30),
)
def test_scalar_truth_column_tracks_every_apply(case, updates):
    oracle, _, query = case
    oracle.register_query(query)
    for stream_id, value in updates:
        oracle.apply(stream_id % oracle.n_streams, value)
        assert np.array_equal(
            oracle.truth_mask(query), query.matches_array(oracle.values)
        )
    assert oracle.true_answer(query) == query.true_answer(oracle.values)


@settings(max_examples=150, deadline=None)
@given(
    spatial_cases(),
    st.lists(
        st.tuples(st.integers(0, 11), coordinates, coordinates), max_size=30
    ),
)
def test_point_truth_column_tracks_every_apply(case, updates):
    oracle, _, query = case
    oracle.register_query(query)
    for stream_id, x, y in updates:
        oracle.apply(stream_id % oracle.n_streams, np.array([x, y]))
        assert np.array_equal(
            oracle.truth_mask(query), query.box.contains_many(oracle.values)
        )
    assert oracle.true_answer(query) == query.true_answer(oracle.values)


# ----------------------------------------------------------------------
# Truth columns are keyed by the query's value
# ----------------------------------------------------------------------
def test_equal_range_queries_share_one_truth_column():
    oracle = Oracle(np.array([5.0, 15.0, 25.0]))
    first, second = RangeQuery(10.0, 20.0), RangeQuery(10.0, 20.0)
    oracle.register_query(first)
    oracle.register_query(second)
    assert oracle.registered_queries == [first]
    assert oracle.truth_mask(second) is oracle.truth_mask(first)
    oracle.apply(0, 12.0)
    assert oracle.true_answer(second) == frozenset({0, 1})


def test_a_registered_query_outlives_the_callers_reference():
    """Keyed by ``id(query)``, a collected query's recycled id could
    alias a later one; keyed by value the oracle keeps it alive."""
    oracle = Oracle(np.array([5.0, 15.0]))
    oracle.register_query(TopKQuery(k=1))
    (kept,) = oracle.registered_queries
    assert isinstance(kept, TopKQuery)
    assert oracle.true_answer(kept) == frozenset({1})


def test_spatial_oracle_rejects_a_flat_vector():
    with pytest.raises(ValueError):
        SpatialOracle(np.zeros(3))
