"""Property tests for the per-stream record primitives.

Replay reads two array facts from ``repro.state.runs`` (DESIGN.md §9),
each pinned here against a naive scalar oracle over hypothesis-generated
columns: the radix grouping equals numpy's stable ``argsort`` and the
predecessor index a dict-walking loop, whatever width the ids need; the
key order equals the stable ``argsort`` on ties and NaNs too.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.state.runs import (
    previous_in_stream,
    stable_id_order,
    stable_key_order,
)


#: Id ranges that take each grouping path: one uint16 pass, the two
#: passes below 2**32 (straddling 2**16, so both halves matter), the
#: plain stable argsort beyond — a handful of records each, so no test
#: allocates for the id space.
ID_RANGES = [(0, 9), (0, (1 << 16) - 1), ((1 << 16) - 3, (1 << 16) + 3),
             (0, (1 << 32) - 1), ((1 << 32) - 3, 1 << 33)]


@st.composite
def id_columns(draw):
    low, high = draw(st.sampled_from(ID_RANGES))
    # A small pool of ids, so streams repeat inside the column.
    pool = draw(st.lists(st.integers(low, high), min_size=1, max_size=6))
    ids = draw(st.lists(st.sampled_from(pool), max_size=50))
    return np.asarray(ids, dtype=np.int64)


@given(id_columns())
@settings(max_examples=300, deadline=None)
def test_radix_grouping_is_the_stable_argsort(ids):
    expected = np.argsort(ids, kind="stable").tolist()
    assert stable_id_order(ids).tolist() == expected


@given(id_columns())
@settings(max_examples=300, deadline=None)
def test_previous_in_stream_matches_a_dict_walk(ids):
    last: dict[int, int] = {}
    expected = []
    for position, stream in enumerate(ids.tolist()):
        expected.append(last.get(stream, -1))
        last[stream] = position
    previous = previous_in_stream(ids)
    assert previous.tolist() == expected
    assert previous.dtype == np.int32  # below 2**31 records
    # A prefix is the prefix's index; an offset slice keeps every
    # predecessor inside the slice and sends the rest negative.
    cut = len(ids) // 2
    assert previous[:cut].tolist() == previous_in_stream(ids[:cut]).tolist()
    tail = previous[cut:] - cut
    assert np.maximum(tail, -1).tolist() == previous_in_stream(ids[cut:]).tolist()


def test_grouping_falls_back_on_ids_it_cannot_narrow():
    for ids in (np.asarray([3, -1, 3, -70000]), np.asarray([2.5, 1.0, 2.5])):
        expected = np.argsort(ids, kind="stable").tolist()
        assert stable_id_order(ids).tolist() == expected
    assert previous_in_stream([]).tolist() == []
    assert previous_in_stream([4]).tolist() == [-1]


@given(
    st.lists(
        st.one_of(
            st.sampled_from([0.0, -0.0, 1.5, np.inf, -np.inf, np.nan]),
            st.floats(-1e6, 1e6),
        ),
        max_size=60,
    )
)
@settings(max_examples=300, deadline=None)
def test_key_order_is_the_stable_argsort(keys):
    """Distinct keys take the default sort, ties (``0.0 == -0.0``
    included) and NaNs the stable one: one permutation either way."""
    keys = np.asarray(keys, dtype=np.float64)
    expected = np.argsort(keys, kind="stable").tolist()
    assert stable_key_order(keys).tolist() == expected
