"""Property tests for the dispatch kernel's run primitives.

The kernel's soundness rests on three array facts (DESIGN.md §9), each
pinned here against a naive scalar oracle over hypothesis-generated
chunks:

* run segmentation partitions the chunk exactly — every position in
  exactly one run, ascending (time-ordered) within each run;
* ``first_true_per_run`` equals a Python loop over each run's mask;
* the cumulative-extrema first-crossing equals both the elementwise
  mask formulation and the per-event ``run_flip_index`` oracle the
  membership layer defines;
* the radix grouping equals numpy's stable ``argsort`` and the
  predecessor index a dict-walking loop, whatever width the ids need.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.membership import run_flip_index
from repro.state.runs import (
    first_true_per_run,
    previous_in_stream,
    segment_runs,
    stable_id_order,
    stable_key_order,
)

MAX_STREAM = 7


# ----------------------------------------------------------------------
# Oracles: the cumulative-extrema formulation of "has the run crossed
# yet".  A prefix of a run is entirely inside ``[lo, hi]`` iff its
# running min stays ``>= lo`` and its running max stays ``<= hi``, so
# the first crossing is the first position where ``cummin < lo or
# cummax > hi``.  Closed-interval containment is elementwise, so that
# position equals the first elementwise violation — which is why the
# kernels use the cheaper elementwise mask and these live here, not in
# ``src/``.
# ----------------------------------------------------------------------
def _segmented_accumulate(values, starts, ufunc) -> np.ndarray:
    """Running ``ufunc`` (min/max) within each segment of ``values``."""
    values = np.asarray(values, dtype=np.float64)
    out = np.empty_like(values)
    starts = np.asarray(starts)
    for r in range(len(starts) - 1):
        lo, hi = int(starts[r]), int(starts[r + 1])
        ufunc.accumulate(values[lo:hi], out=out[lo:hi])
    return out


def segmented_cummin(values, starts) -> np.ndarray:
    """Running minimum within each run."""
    return _segmented_accumulate(values, starts, np.minimum)


def segmented_cummax(values, starts) -> np.ndarray:
    """Running maximum within each run."""
    return _segmented_accumulate(values, starts, np.maximum)


def first_interval_crossing(values, starts, lower, upper) -> np.ndarray:
    """First position per run whose running extrema escape ``[lo, up]``
    (``-1`` for runs that never leave)."""
    values = np.asarray(values, dtype=np.float64)
    starts = np.asarray(starts)
    counts = np.diff(starts)
    lower_g = np.repeat(np.asarray(lower, dtype=np.float64), counts)
    upper_g = np.repeat(np.asarray(upper, dtype=np.float64), counts)
    crossed = (segmented_cummin(values, starts) < lower_g) | (
        segmented_cummax(values, starts) > upper_g
    )
    return first_true_per_run(crossed, starts)


@st.composite
def chunks(draw):
    """A chunk of stream ids with parallel float payloads."""
    n = draw(st.integers(0, 60))
    ids = draw(
        st.lists(
            st.integers(0, MAX_STREAM), min_size=n, max_size=n
        )
    )
    values = draw(
        st.lists(
            st.floats(-100.0, 100.0, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    return np.asarray(ids, dtype=np.int64), np.asarray(values)


@st.composite
def bounds_per_run(draw, n_runs):
    """Closed (possibly empty or unbounded) intervals, one per run."""
    lower = draw(
        st.lists(
            st.floats(-120.0, 120.0, allow_nan=False),
            min_size=n_runs,
            max_size=n_runs,
        )
    )
    width = draw(
        st.lists(
            st.floats(0.0, 200.0, allow_nan=False),
            min_size=n_runs,
            max_size=n_runs,
        )
    )
    lower = np.asarray(lower)
    return lower, lower + np.asarray(width)


@given(chunks())
@settings(max_examples=200, deadline=None)
def test_segmentation_partitions_the_chunk_exactly(chunk):
    ids, _ = chunk
    order, starts, run_ids = segment_runs(ids)
    # Every position appears in exactly one run.
    assert sorted(order.tolist()) == list(range(len(ids)))
    assert starts[0] == 0 and starts[-1] == len(ids)
    assert len(run_ids) == len(starts) - 1
    covered = []
    for r in range(len(run_ids)):
        run = order[starts[r] : starts[r + 1]]
        assert len(run) > 0
        # One stream per run, ascending positions (stable = time order).
        assert (ids[run] == run_ids[r]).all()
        assert (np.diff(run) > 0).all() if len(run) > 1 else True
        covered.extend(run.tolist())
    assert sorted(covered) == list(range(len(ids)))
    # Runs are maximal: distinct runs carry distinct stream ids.
    assert len(set(run_ids.tolist())) == len(run_ids)


@given(chunks(), st.data())
@settings(max_examples=200, deadline=None)
def test_first_true_per_run_matches_scalar_loop(chunk, data):
    ids, _ = chunk
    order, starts, run_ids = segment_runs(ids)
    mask = np.asarray(
        data.draw(
            st.lists(
                st.booleans(), min_size=len(ids), max_size=len(ids)
            )
        ),
        dtype=bool,
    )
    grouped = mask[order]
    first = first_true_per_run(grouped, starts)
    for r in range(len(run_ids)):
        lo, hi = int(starts[r]), int(starts[r + 1])
        expected = next(
            (g for g in range(lo, hi) if grouped[g]), -1
        )
        assert first[r] == expected


@given(chunks(), st.data())
@settings(max_examples=200, deadline=None)
def test_interval_crossing_equals_elementwise_and_flip_oracle(chunk, data):
    ids, values = chunk
    order, starts, run_ids = segment_runs(ids)
    lower, upper = data.draw(bounds_per_run(len(run_ids)))
    grouped = values[order]

    by_extrema = first_interval_crossing(grouped, starts, lower, upper)

    counts = np.diff(starts)
    lower_g = np.repeat(lower, counts)
    upper_g = np.repeat(upper, counts)
    outside = (grouped < lower_g) | (grouped > upper_g)
    by_mask = first_true_per_run(outside, starts)
    assert (by_extrema == by_mask).all()

    # Both agree with the membership layer's per-event oracle for a
    # believed-inside stream (the quiescence-row contract).
    for r in range(len(run_ids)):
        lo, hi = int(starts[r]), int(starts[r + 1])
        flip = run_flip_index(
            [(float(lower[r]), float(upper[r]), True)], grouped[lo:hi]
        )
        expected = -1 if flip is None else lo + flip
        assert by_extrema[r] == expected


@given(chunks(), st.data())
@settings(max_examples=100, deadline=None)
def test_segmented_extrema_match_per_run_accumulate(chunk, data):
    ids, values = chunk
    order, starts, _ = segment_runs(ids)
    grouped = values[order]
    cummin = segmented_cummin(grouped, starts)
    cummax = segmented_cummax(grouped, starts)
    for r in range(len(starts) - 1):
        lo, hi = int(starts[r]), int(starts[r + 1])
        run = grouped[lo:hi]
        assert (cummin[lo:hi] == np.minimum.accumulate(run)).all()
        assert (cummax[lo:hi] == np.maximum.accumulate(run)).all()


def test_empty_chunk_degenerates_cleanly():
    order, starts, run_ids = segment_runs(np.asarray([], dtype=np.int64))
    assert len(order) == 0 and len(run_ids) == 0
    assert starts.tolist() == [0]
    assert len(first_true_per_run(np.asarray([], dtype=bool), starts)) == 0


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
    # The cursor's run structure is built on the same grouping.
    assert segment_runs(ids)[0].tolist() == expected


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


def test_unbatchable_source_flips_immediately():
    """rows=None (no quiescence info) must flip at index 0."""
    assert run_flip_index(None, np.asarray([1.0])) == 0
    assert run_flip_index(None, np.asarray([])) is None
