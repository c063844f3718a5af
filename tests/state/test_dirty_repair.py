"""``RankView``'s dirty-row repair drops the dirty ids with a row mark.

Dirty notes are row ids below ``n_streams``, so ``~mark[ids]`` over a
boolean row mark removes them from the maintained order; the sort-based
``np.isin`` it replaced is the oracle here.  Both views see the same
table and the same writes — point reports, unknown rows becoming known,
bulk invalidations — and must agree on the whole ``(ids, keys)`` order
after every read, shard views included.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.queries.knn import KnnQuery
from repro.state.rank import RankView
from repro.state.sharding import StateShardView
from repro.state.table import StreamStateTable


class IsinRankView(RankView):
    """The repair as it was: membership by ``np.isin``."""

    def _repair(self) -> None:
        if (
            self._all_dirty
            or self._ids is None
            or self._synced_known != self.table.known_count
        ):
            self._rebuild()
            return
        if not self._dirty:
            return
        dirty = np.fromiter(sorted(self._dirty), np.int64, len(self._dirty))
        keep = ~np.isin(self._ids, dirty, assume_unique=True)
        kept_ids, kept_keys = self._ids[keep], self._keys[keep]
        dirty = dirty[self.table.known[dirty]]
        batch_keys = self._keys_for(dirty)
        batch_order = np.argsort(batch_keys, kind="stable")
        b_ids, b_keys = dirty[batch_order], batch_keys[batch_order]
        positions = np.searchsorted(kept_keys, b_keys, side="left")
        for index in range(len(b_ids)):
            pos = int(positions[index])
            while (
                pos < len(kept_keys)
                and kept_keys[pos] == b_keys[index]
                and kept_ids[pos] < b_ids[index]
            ):
                pos += 1
            positions[index] = pos
        self._ids = np.insert(kept_ids, positions, b_ids)
        self._keys = np.insert(kept_keys, positions, b_keys)
        self._dirty.clear()


QUERY = KnnQuery(q=50.0, k=3)
#: Coarse values so equal keys — the tie rule — are common.
VALUE = st.sampled_from([0.0, 25.0, 40.0, 50.0, 60.0, 75.0, 100.0])
WRITE = st.tuples(st.integers(0, 63), VALUE, st.booleans())


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(8, 64),
    known=st.integers(0, 64),
    batches=st.lists(st.lists(WRITE, max_size=6), min_size=1, max_size=8),
    shard=st.booleans(),
)
def test_mark_repair_equals_isin_repair(n, known, batches, shard):
    parent = StreamStateTable(n)
    table = StateShardView(parent, n // 4, n) if shard else parent
    rows = table.n_streams
    for row in range(min(known, rows)):
        table.record_report(row, float(row % 7) * 15.0, 0.0)
    mark, isin = RankView(table, QUERY.distance_array), IsinRankView(
        table, QUERY.distance_array
    )
    for time, batch in enumerate(batches, start=1):
        for row, value, read in batch:
            table.record_report(row % rows, value, float(time))
            if read:  # reads between writes repair small dirty sets
                for view in (mark, isin):
                    view.order_arrays()
        ids, keys = mark.order_arrays()
        want_ids, want_keys = isin.order_arrays()
        assert ids.tolist() == want_ids.tolist()
        assert keys.tolist() == want_keys.tolist()


def test_batch_keys_tying_kept_keys_slide_past_smaller_ids():
    """Dirty rows whose new key equals the kept key at their insertion
    point: each lands among the kept rows of that key by id — before,
    between and after them — and one batch key past every kept key
    lands at the end; the whole order equals the ``isin`` repair's and
    a rebuild's."""
    # Forty rows keep four dirty ones under the rebuild threshold.
    table = StreamStateTable(40)
    # Distances from q = 50: rows 2, 5 and 8 at 10, none other; rows
    # 10-39 at 60-89.
    values = [50.0, 45.0, 40.0, 48.0, 35.0, 60.0, 30.0, 20.0, 40.0, 55.0]
    for row, value in enumerate(values + [110.0 + row for row in range(30)]):
        table.record_report(row, value, 0.0)
    mark = RankView(table, QUERY.distance_array)
    isin = IsinRankView(table, QUERY.distance_array)
    for view in (mark, isin):
        view.order_arrays()
    # Rows 0, 6 and 9 move onto distance 10 (ids before, between and
    # after kept rows 2, 5, 8); row 3 moves past every kept key.
    for row, value in ((0, 60.0), (6, 40.0), (9, 60.0), (3, 150.0)):
        table.record_report(row, value, 1.0)
    assert mark._dirty == {0, 3, 6, 9}  # a repair, not a rebuild
    ids, keys = mark.order_arrays()
    want_ids, want_keys = isin.order_arrays()
    assert ids.tolist() == want_ids.tolist()
    assert keys.tolist() == want_keys.tolist()
    rebuilt = RankView(table, QUERY.distance_array)
    assert ids.tolist() == rebuilt.order_ids().tolist()
    assert ids.tolist()[:10] == [1, 0, 2, 5, 6, 8, 9, 4, 7, 10]
    assert ids.tolist()[-1] == 3
