"""Unit + randomized tests for incremental rank maintenance."""

import numpy as np
import pytest

from repro.queries.knn import KMinQuery, KnnQuery, TopKQuery
from repro.state.rank import RankView
from repro.state.table import StreamStateTable


def legacy_order(query, values):
    """The seed's dict + python-sorted rank derivation."""
    known = {i: float(v) for i, v in enumerate(values)}
    return sorted(known, key=lambda i: (query.distance(known[i]), i))


def make_view(query, values):
    table = StreamStateTable(len(values))
    table.record_report_rows(
        np.arange(len(values)), np.asarray(values, dtype=np.float64)
    )
    return table, RankView(table, query.distance_array)


@pytest.mark.parametrize(
    "query", [KnnQuery(q=50.0, k=3), TopKQuery(k=3), KMinQuery(k=3)]
)
def test_bulk_order_matches_legacy_sorted(query):
    rng = np.random.default_rng(3)
    values = rng.normal(50.0, 20.0, size=64)
    _, view = make_view(query, values)
    assert view.order() == legacy_order(query, values)


def test_ties_break_by_stream_id():
    # Streams 1 and 3 are equidistant from q; id order must win.
    query = KnnQuery(q=10.0, k=2)
    values = [0.0, 12.0, 30.0, 8.0, 10.0]
    _, view = make_view(query, values)
    assert view.order() == [4, 1, 3, 0, 2]
    assert view.leaders(3) == [4, 1, 3]


def test_leaders_partial_selection_matches_full_order():
    query = TopKQuery(k=5)
    rng = np.random.default_rng(11)
    values = rng.normal(0.0, 100.0, size=500)
    _, view = make_view(query, values)
    expected = legacy_order(query, values)
    # all-dirty: leaders goes through the argpartition path.
    assert view.leaders(6) == expected[:6]
    assert view.leaders(0) == []
    # count beyond the population falls back to the full sort.
    table2, view2 = make_view(query, values[:4])
    assert view2.leaders(10) == legacy_order(query, values[:4])


def test_dirty_region_repair_matches_resort():
    query = KnnQuery(q=500.0, k=4)
    rng = np.random.default_rng(7)
    values = rng.normal(500.0, 100.0, size=200)
    table, view = make_view(query, values)
    view.order()  # settle
    known = {i: float(v) for i, v in enumerate(values)}
    for step in range(50):
        sid = int(rng.integers(0, len(values)))
        new = float(rng.normal(500.0, 150.0))
        table.record_report(sid, new)
        known[sid] = new
        if step % 3 == 0:  # read at varying dirty-batch sizes
            assert view.order() == sorted(
                known, key=lambda i: (query.distance(known[i]), i)
            )
    assert view.order() == sorted(
        known, key=lambda i: (query.distance(known[i]), i)
    )


def test_repair_with_duplicate_keys():
    """Dirty repair must honour id tie-breaks among equal keys."""
    query = KMinQuery(k=2)
    values = [5.0, 5.0, 5.0, 1.0, 9.0]
    table, view = make_view(query, values)
    view.order()
    table.record_report(4, 5.0)  # now four streams tied at 5.0
    assert view.order() == [3, 0, 1, 2, 4]
    table.record_report(0, 5.0)  # rewrite with the same key
    assert view.order() == [3, 0, 1, 2, 4]


def test_large_dirty_fraction_triggers_rebuild():
    query = KMinQuery(k=2)
    rng = np.random.default_rng(5)
    values = rng.normal(0.0, 10.0, size=40)
    table, view = make_view(query, values)
    view.order()
    known = {i: float(v) for i, v in enumerate(values)}
    for sid in range(20):  # half the population: exceeds the repair budget
        new = float(rng.normal(0.0, 10.0))
        table.record_report(sid, new)
        known[sid] = new
    assert view.order() == sorted(
        known, key=lambda i: (query.distance(known[i]), i)
    )


def test_partial_known_population():
    query = KMinQuery(k=1)
    table = StreamStateTable(6)
    for sid, value in [(4, 3.0), (1, 7.0), (5, 1.0)]:
        table.record_report(sid, value)
    view = RankView(table, query.distance_array)
    assert view.order() == [5, 4, 1]
    assert view.leaders(2) == [5, 4]
    table.record_report(0, 2.0)  # newly known stream joins the order
    assert view.order() == [5, 0, 4, 1]


def test_key_of_matches_query_distance():
    query = KnnQuery(q=10.0, k=1)
    table, view = make_view(query, [4.0, 18.0])
    assert view.key_of(0) == query.distance(4.0)
    assert view.key_of(1) == query.distance(18.0)
