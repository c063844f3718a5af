"""``StreamTrace.crossings``: a trace's crossings of an interval, listed
once (DESIGN.md §9).

A crossing is a record whose containment in the closed interval differs
from its stream's previous record's, or from the stream's initial value
for its first record.  The memo is held to a per-record scalar walk over
every block size (the pass reads the records a block at a time, each
block starting on the sides the blocks before it left), and to the memo
rules: one array per interval, read-only, a bounded number of
intervals, nothing kept for an interval that contains nothing, nothing
inherited by a derived or loaded trace, and one predecessor index per
trace whoever asks first.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Engine, QuerySpec, Workload
from repro.queries.range_query import RangeQuery
from repro.runtime import replay as replay_module
from repro.state.runs import previous_in_stream
from repro.streams import trace as trace_module
from repro.streams.trace import CROSSINGS_KEPT, StreamTrace

INF = math.inf


def walk(trace, lower, upper) -> list[int]:
    """The crossings, one record at a time: the reference."""
    side = {s: lower <= v <= upper for s, v in enumerate(trace.initial_values)}
    hits = []
    for index, record in enumerate(trace):
        inside = lower <= record.value <= upper
        if inside != side[record.stream_id]:
            hits.append(index)
        side[record.stream_id] = inside
    return hits


def make_trace(initial, ids, values) -> StreamTrace:
    n = len(ids)
    return StreamTrace(
        initial_values=np.asarray(initial, dtype=np.float64),
        times=np.arange(n, dtype=np.float64),
        stream_ids=np.asarray(ids, dtype=np.int64),
        values=np.asarray(values, dtype=np.float64),
        horizon=float(n),
    )


#: Few distinct values, so records land on the bounds and repeat.
VALUES = st.sampled_from([-INF, 0.0, 1.0, 2.0, 3.0, 4.0, INF])


@st.composite
def traces(draw):
    n_streams = draw(st.integers(1, 5))
    initial = draw(st.lists(VALUES, min_size=n_streams, max_size=n_streams))
    n = draw(st.integers(0, 40))
    ids = draw(st.lists(st.integers(0, n_streams - 1), min_size=n, max_size=n))
    values = draw(st.lists(VALUES, min_size=n, max_size=n))
    return make_trace(initial, ids, values)


INTERVALS = st.sampled_from(
    [
        (1.0, 3.0),
        (2.0, 2.0),  # a point: both closed bounds at once
        (-INF, 1.0),
        (3.0, INF),
        (-INF, INF),
        (INF, INF),
        (0.5, 0.7),  # between the values: no record inside
    ]
)


@pytest.mark.parametrize("block", [1, 3, 1 << 16])
@given(trace=traces(), interval=INTERVALS)
@settings(max_examples=60, deadline=None)
def test_the_memo_equals_a_scalar_walk(block, trace, interval):
    with mock.patch.object(trace_module, "CROSSINGS_BLOCK", block):
        hits = trace.crossings(*interval)
    assert hits.tolist() == walk(trace, *interval)
    assert hits.dtype == np.intp


def test_closed_bounds_and_repeated_ids():
    # Stream 0 starts inside [1, 3]; its records sit on the bounds.
    trace = make_trace([2.0, 5.0], [0, 0, 0, 1, 1, 0], [1.0, 3.0, 3.5, 3.0, 3.0, 1.0])
    assert trace.crossings(1.0, 3.0).tolist() == [2, 3, 5]
    assert trace.crossings(3.0, 3.0).tolist() == [1, 2, 3]
    assert trace.crossings(-INF, INF).tolist() == []


def test_an_empty_trace_lists_nothing():
    trace = make_trace([1.0, 2.0], [], [])
    assert trace.crossings(0.0, 1.5).tolist() == []


def test_a_second_call_returns_the_same_read_only_array():
    trace = make_trace([0.0], [0, 0], [2.0, 0.0])
    hits = trace.crossings(1.0, 3.0)
    assert trace.crossings(1.0, 3.0) is hits
    assert trace.crossings(np.float64(1.0), 3) is hits  # one key per value
    assert not hits.flags.writeable
    with pytest.raises(ValueError):
        hits[0] = 5


@pytest.mark.parametrize(
    "interval", [(math.nan, math.nan), (1.0, math.nan), (3.0, 1.0)]
)
def test_an_interval_that_contains_nothing_lists_nothing_and_is_not_kept(interval):
    trace = make_trace([0.0], [0, 0], [2.0, 0.0])
    assert trace.crossings(*interval).tolist() == []
    assert trace.__dict__.get("_crossings", {}) == {}


def test_the_memo_keeps_the_last_few_intervals():
    trace = make_trace([0.0], [0, 0, 0], [2.0, 0.0, 5.0])
    first = trace.crossings(1.0, 3.0)
    for upper in range(4, 4 + 3 * CROSSINGS_KEPT):
        trace.crossings(1.0, float(upper))
        assert len(trace.__dict__["_crossings"]) <= CROSSINGS_KEPT
    again = trace.crossings(1.0, 3.0)
    assert again is not first  # evicted, listed again
    assert again.tolist() == first.tolist()


def test_derived_and_loaded_traces_list_their_own(tmp_path):
    trace = Workload.synthetic(n_streams=20, horizon=40.0, seed=1).materialize()
    trace.crossings(400.0, 600.0)
    restricted = trace.restrict_streams(10)
    assert "_crossings" not in restricted.__dict__
    assert restricted.crossings(400.0, 600.0).tolist() == walk(restricted, 400.0, 600.0)
    trace.save(tmp_path / "t.npz")
    loaded = StreamTrace.load(tmp_path / "t.npz")
    assert "_crossings" not in loaded.__dict__
    assert "previous_record" not in loaded.__dict__
    assert loaded.crossings(400.0, 600.0).tolist() == trace.crossings(400.0, 600.0).tolist()


def test_the_kernel_and_the_memo_build_one_index_per_trace(monkeypatch):
    calls = []

    def spy(stream_ids):
        calls.append(len(stream_ids))
        return previous_in_stream(stream_ids)

    monkeypatch.setattr(trace_module, "previous_in_stream", spy)
    monkeypatch.setattr(replay_module, "previous_in_stream", spy)
    workload = Workload.synthetic(n_streams=30, horizon=40.0, seed=2)
    trace = workload.materialize()
    spec = QuerySpec("zt-nrp", RangeQuery(400.0, 600.0))
    trace.crossings(300.0, 500.0)
    reports = [Engine().run(spec, workload) for _ in range(2)]
    assert [r.extras["replay"]["kernel"] for r in reports] == ["columnar"] * 2
    assert (400.0, 600.0) in trace.__dict__["_crossings"]  # the runs' memo
    trace.crossings(400.0, 600.0)
    assert calls == [trace.n_records]
