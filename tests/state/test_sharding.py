"""Property and edge-case tests for the k-way shard merge.

The sharded coordinator's correctness rests on one claim: any contiguous
partition of a population into per-shard ``RankView``s, merged by
``(key, id)``, reproduces the unsharded ``RankView`` order exactly —
including key ties and duplicate distances.  These tests exercise that
claim over random partitions, random data, and adversarial tie layouts.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.queries.knn import KMinQuery, KnnQuery, TopKQuery
from repro.state.rank import RankView
from repro.state.sharding import (
    ShardedRankView,
    StateShardView,
    merge_pair_lists,
    shard_ranges,
    validate_shard_alignment,
)
from repro.state.table import StreamStateTable


def build_single(query, values):
    table = StreamStateTable(len(values))
    table.record_report_rows(
        np.arange(len(values)), np.asarray(values, dtype=np.float64), 0.0
    )
    return table, RankView(table, query.distance_array)


def build_sharded(query, values, ranges):
    parent = StreamStateTable(len(values))
    shards = [StateShardView(parent, lo, hi) for lo, hi in ranges]
    validate_shard_alignment(parent, shards)
    view = ShardedRankView(shards, query.distance_array)
    for shard in shards:
        shard.record_report_rows(
            np.arange(shard.n_streams),
            np.asarray(values[shard.lo : shard.hi], dtype=np.float64),
            0.0,
        )
    return parent, shards, view


def random_ranges(rng, n):
    """A random contiguous partition of range(n) into 1..min(n, 6) shards."""
    n_shards = int(rng.integers(1, min(n, 6) + 1))
    cuts = sorted(rng.choice(np.arange(1, n), size=n_shards - 1, replace=False))
    bounds = [0, *[int(c) for c in cuts], n]
    return list(zip(bounds[:-1], bounds[1:]))


# ----------------------------------------------------------------------
# shard_ranges
# ----------------------------------------------------------------------
def test_shard_ranges_balanced_cover():
    for n, s in [(10, 1), (10, 3), (10, 10), (7, 2), (100, 8)]:
        ranges = shard_ranges(n, s)
        assert ranges[0][0] == 0 and ranges[-1][1] == n
        sizes = [hi - lo for lo, hi in ranges]
        assert sum(sizes) == n
        assert max(sizes) - min(sizes) <= 1
        assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))


def test_shard_ranges_rejects_bad_counts():
    with pytest.raises(ValueError):
        shard_ranges(5, 0)
    with pytest.raises(ValueError):
        shard_ranges(5, 6)
    with pytest.raises(ValueError):
        shard_ranges(0, 1)


# ----------------------------------------------------------------------
# StateShardView aliasing
# ----------------------------------------------------------------------
def test_shard_view_writes_alias_parent_columns():
    parent = StreamStateTable(10)
    shard = StateShardView(parent, 4, 8)
    shard.record_report(1, 42.0, 3.0)  # global stream 5
    assert parent.values[5] == 42.0
    assert parent.known[5]
    shard.record_deploy(0, -1.0, 1.0)  # global stream 4
    assert parent.lower[4] == -1.0 and parent.upper[4] == 1.0
    assert parent.scannable[4]
    # Parent-side membership writes are visible through the view.
    parent.answer_add(6)
    assert shard.answer_mask[2]


def test_shard_view_notifies_only_local_listeners():
    parent = StreamStateTable(8)
    left = StateShardView(parent, 0, 4)
    right = StateShardView(parent, 4, 8)
    query = TopKQuery(k=2)
    left_view = RankView(left, query.distance_array)
    right_view = RankView(right, query.distance_array)
    left.record_report_rows(np.arange(4), np.arange(4, dtype=np.float64), 0.0)
    right.record_report_rows(np.arange(4), np.arange(4, 8, dtype=np.float64), 0.0)
    left_view.order(), right_view.order()
    assert left_view.is_synced and right_view.is_synced
    right.record_report(1, 99.0, 1.0)  # global stream 5
    assert left_view.is_synced
    assert not right_view.is_synced


def test_shard_view_rejects_bad_ranges():
    parent = StreamStateTable(4)
    with pytest.raises(ValueError):
        StateShardView(parent, 2, 2)
    with pytest.raises(ValueError):
        StateShardView(parent, 0, 5)


def test_shard_view_vector_payloads_alias_parent_points():
    """Vector-payload (spatial) tables shard like scalar ones."""
    parent = StreamStateTable(6)
    left = StateShardView(parent, 0, 3)
    right = StateShardView(parent, 3, 6)
    # Points allocated through a view after the views were built.
    right.record_report(1, np.array([1.0, 2.0]), 0.5)  # global stream 4
    assert parent.points is not None and parent.points.shape == (6, 2)
    assert np.array_equal(parent.points[4], [1.0, 2.0])
    assert right.known[1] and parent.known[4]
    # Points allocated on the parent are visible through every view.
    parent.record_report(0, np.array([9.0, 9.0]), 1.0)
    assert np.array_equal(left.points[0], [9.0, 9.0])
    assert left.payload_array().shape == (3, 2)


def test_shard_view_geometric_plane_aliases_parent():
    parent = StreamStateTable(6)
    left = StateShardView(parent, 0, 3)
    right = StateShardView(parent, 3, 6)
    # Geometric plane allocated via a view write, visible everywhere.
    right.record_region_deploy(
        0, [1.0, 1.0], [2.0, 2.0], [0.0, 0.0], [3.0, 3.0]
    )  # global stream 3
    assert parent.geo_scannable[3] and right.geo_scannable[0]
    assert np.array_equal(parent.geo_lower[3], [1.0, 1.0])
    assert np.array_equal(left.geo_upper[2], [-np.inf, -np.inf])
    parent.inside[3] = True
    quiescent = parent.geometric_quiescence_mask(
        np.array([[1.5, 1.5]]), np.array([3])
    )
    assert quiescent.tolist() == [True]
    right.clear_region_filter(0)
    assert not parent.geo_scannable[3]


def test_shard_view_container_column_aliases_parent():
    parent = StreamStateTable(4)
    shard = StateShardView(parent, 2, 4)
    marker = object()
    shard._ensure_containers()[1] = marker  # global stream 3
    assert parent.containers is not None
    assert parent.containers[3] is marker
    assert shard.containers[1] is marker


def test_validate_shard_alignment_catches_gaps():
    parent = StreamStateTable(10)
    shards = [StateShardView(parent, 0, 4), StateShardView(parent, 5, 10)]
    with pytest.raises(ValueError, match="contiguous"):
        validate_shard_alignment(parent, shards)


# ----------------------------------------------------------------------
# merge_pair_lists
# ----------------------------------------------------------------------
def test_merge_pair_lists_breaks_key_ties_by_id():
    left = [(1.0, 0), (2.0, 2)]
    right = [(1.0, 1), (1.0, 3)]
    assert merge_pair_lists([left, right]) == [0, 1, 3, 2]
    assert merge_pair_lists([left, right], count=2) == [0, 1]
    assert merge_pair_lists([]) == []


# ----------------------------------------------------------------------
# ShardedRankView == RankView, property-style
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "query", [KnnQuery(q=50.0, k=4), TopKQuery(k=4), KMinQuery(k=4)]
)
@pytest.mark.parametrize("seed", range(6))
def test_random_partition_order_matches_unsharded(query, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 120))
    values = rng.normal(50.0, 20.0, size=n)
    _, single = build_single(query, values)
    _, _, sharded = build_sharded(query, values, random_ranges(rng, n))
    assert sharded.order() == single.order()
    for count in (0, 1, query.k, query.k + 1, n, n + 5):
        assert sharded.leaders(count) == single.leaders(count)


@pytest.mark.parametrize("seed", range(4))
def test_random_partition_topk_with_duplicate_distances(seed):
    # Values drawn from a tiny grid force massive key duplication, so
    # every cross-shard tie must be broken by global stream id.
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(8, 80))
    values = rng.choice([10.0, 20.0, 30.0], size=n)
    query = TopKQuery(k=5)
    _, single = build_single(query, values)
    _, _, sharded = build_sharded(query, values, random_ranges(rng, n))
    assert sharded.order() == single.order()
    assert sharded.leaders(6) == single.leaders(6)


@given(
    values=st.lists(st.integers(0, 4), min_size=2, max_size=40),
    cut_seed=st.integers(0, 2**16),
    rewrites=st.lists(
        st.tuples(st.integers(0, 39), st.integers(0, 4)), max_size=6
    ),
)
@settings(max_examples=150, deadline=None)
def test_order_ids_merge_equals_the_lexsort_it_replaced(
    values, cut_seed, rewrites
):
    """``order_ids`` merges the shards' sorted orders with one stable
    sort of the keys; the column must be the ``(key, id)`` lexsort of
    the concatenation — keys from a five-value grid, so ties within and
    across shards are the common case — also after point repairs."""
    n = len(values)
    values = np.asarray(values, dtype=np.float64)
    ranges = random_ranges(np.random.default_rng(cut_seed), n)
    query = KMinQuery(k=2)
    _, shards, sharded = build_sharded(query, values, ranges)

    def lexsorted():
        parts = [view.order_arrays() for view in sharded._views]
        ids = np.concatenate(
            [part[0] + shard.lo for part, shard in zip(parts, shards)]
        )
        keys = np.concatenate([part[1] for part in parts])
        return ids[np.lexsort((ids, keys))].tolist()

    assert sharded.order_ids().tolist() == lexsorted()
    for stream, value in rewrites:
        stream %= n
        shard = next(s for s in shards if s.lo <= stream < s.hi)
        shard.record_report(stream - shard.lo, float(value), 1.0)
        assert sharded.order_ids().tolist() == lexsorted()


def test_all_streams_equidistant_ties():
    # Every key identical: the merged order must be 0..n-1 exactly.
    n = 23
    values = np.full(n, 7.0)
    query = KnnQuery(q=7.0, k=3)
    _, _, sharded = build_sharded(query, values, shard_ranges(n, 4))
    assert sharded.order() == list(range(n))
    assert sharded.leaders(4) == [0, 1, 2, 3]


def test_boundary_tie_straddles_a_shard_cut():
    # Streams 3 and 4 tie and sit on opposite sides of the shard cut.
    values = [5.0, 1.0, 9.0, 4.0, 4.0, 8.0, 2.0, 6.0]
    query = KMinQuery(k=3)
    _, single = build_single(query, values)
    _, _, sharded = build_sharded(query, values, [(0, 4), (4, 8)])
    assert sharded.leaders(4) == single.leaders(4)
    assert sharded.order() == single.order()


def test_point_updates_repair_only_dirty_shards_but_stay_exact():
    rng = np.random.default_rng(7)
    n = 60
    values = rng.normal(0.0, 10.0, size=n)
    query = TopKQuery(k=3)
    table, single = build_single(query, values)
    parent, shards, sharded = build_sharded(
        query, values, shard_ranges(n, 3)
    )
    assert sharded.order() == single.order()  # sync both
    for _ in range(40):
        stream = int(rng.integers(0, n))
        value = float(rng.normal(0.0, 10.0))
        table.record_report(stream, value, 1.0)
        for shard in shards:
            if shard.lo <= stream < shard.hi:
                shard.record_report(stream - shard.lo, value, 1.0)
        assert sharded.order() == single.order()
        assert sharded.leaders(4) == single.leaders(4)


def test_key_of_and_invalidate_roundtrip():
    values = [3.0, 1.0, 2.0, 5.0, 4.0]
    query = KMinQuery(k=2)
    _, single = build_single(query, values)
    _, _, sharded = build_sharded(query, values, [(0, 2), (2, 5)])
    for stream in range(5):
        assert sharded.key_of(stream) == single.key_of(stream)
    with pytest.raises(IndexError):
        sharded.key_of(5)
    sharded.invalidate()
    assert not sharded.is_synced
    assert sharded.order() == single.order()


def test_partial_known_population():
    # Only some streams known: the merged order covers exactly the known
    # ids, like the unsharded view.
    query = TopKQuery(k=2)
    single_table = StreamStateTable(9)
    single = RankView(single_table, query.distance_array)
    parent = StreamStateTable(9)
    shards = [StateShardView(parent, lo, hi) for lo, hi in shard_ranges(9, 3)]
    sharded = ShardedRankView(shards, query.distance_array)
    for stream, value in [(0, 5.0), (4, 9.0), (5, 9.0), (8, 1.0)]:
        single_table.record_report(stream, value, 0.0)
        for shard in shards:
            if shard.lo <= stream < shard.hi:
                shard.record_report(stream - shard.lo, value, 0.0)
    assert sharded.order() == single.order() == [4, 5, 0, 8]
    assert sharded.leaders(2) == [4, 5]
