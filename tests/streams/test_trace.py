"""Unit + property tests for trace containers.

A trace's values are scalars or d-dimensional points (DESIGN.md §15):
every test that does not depend on which runs over both, the point
trace being the scalar one with each value ``v`` lifted to ``(v, -v)``.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.streams.trace import StreamTrace, TraceRecord

#: A record value's trailing shape: a scalar trace's, an ``(n, 2)`` one's.
SHAPES = pytest.mark.parametrize("shape", [(), (2,)], ids=["scalar", "points"])


def lift(values, shape):
    """Scalar *values* as payloads of *shape*: ``v`` or ``(v, -v)``."""
    values = np.asarray(values, dtype=float)
    return np.stack([values, -values], axis=-1) if shape else values


def make_trace(times, ids, values, n_streams=5, horizon=None, shape=()):
    times = np.asarray(times, dtype=float)
    return StreamTrace(
        initial_values=np.zeros((n_streams, *shape)),
        times=times,
        stream_ids=np.asarray(ids, dtype=np.int64),
        values=lift(values, shape),
        horizon=horizon if horizon is not None else (times[-1] if len(times) else 0.0),
    )


@pytest.fixture(params=[(), (2,)], ids=["scalar", "points"])
def any_trace(request, manual_trace) -> StreamTrace:
    """:func:`manual_trace`, or its ``(n, 2)`` lift."""
    shape = request.param
    return dataclasses.replace(
        manual_trace,
        initial_values=lift(manual_trace.initial_values, shape),
        values=lift(manual_trace.values, shape),
    )


@SHAPES
class TestValidation:
    def test_unsorted_times_rejected(self, shape):
        with pytest.raises(ValueError, match="sorted"):
            make_trace([2.0, 1.0], [0, 1], [1.0, 2.0], shape=shape)

    def test_mismatched_lengths_rejected(self, shape):
        with pytest.raises(ValueError, match="equal length"):
            StreamTrace(
                initial_values=np.zeros((2, *shape)),
                times=np.array([1.0]),
                stream_ids=np.array([0, 1]),
                values=lift([1.0], shape),
                horizon=2.0,
            )

    def test_unknown_stream_id_rejected(self, shape):
        with pytest.raises(ValueError, match="unknown stream"):
            make_trace([1.0], [7], [1.0], n_streams=3, shape=shape)

    def test_negative_time_rejected(self, shape):
        with pytest.raises(ValueError, match="non-negative"):
            make_trace([-1.0], [0], [1.0], shape=shape)

    def test_horizon_before_last_record_rejected(self, shape):
        with pytest.raises(ValueError, match="horizon"):
            make_trace([5.0], [0], [1.0], horizon=3.0, shape=shape)

    def test_record_and_initial_dimensions_must_agree(self, shape):
        other = (3,) if shape else (1,)
        with pytest.raises(ValueError, match="dimension"):
            StreamTrace(
                initial_values=np.zeros((2, *shape)),
                times=np.array([1.0]),
                stream_ids=np.array([0]),
                values=np.zeros((1, *other)),
                horizon=2.0,
            )

    def test_empty_trace_is_valid(self, shape):
        trace = make_trace([], [], [], horizon=10.0, shape=shape)
        assert trace.n_records == 0
        assert trace.values.shape == (0, *shape)
        assert list(trace) == []


def test_initial_values_are_a_column_or_a_matrix():
    with pytest.raises(ValueError, match="initial values"):
        StreamTrace(
            initial_values=np.zeros((2, 2, 2)),
            times=np.array([]),
            stream_ids=np.array([]),
            values=np.empty((0, 2, 2)),
            horizon=1.0,
        )


class TestAccessors:
    def test_iteration_yields_records(self, manual_trace):
        records = list(manual_trace)
        assert records[0] == TraceRecord(1.0, 0, 12.0)
        assert type(records[0].value) is float
        assert len(records) == manual_trace.n_records == 5

    def test_a_point_record_yields_its_row(self, any_trace):
        records = list(any_trace)
        assert len(records) == any_trace.n_records == 5
        for record, time, stream_id, value in zip(
            records, any_trace.times, any_trace.stream_ids, any_trace.values
        ):
            assert (record.time, record.stream_id) == (time, stream_id)
            np.testing.assert_array_equal(record.value, value)
        if any_trace.values.ndim == 2:
            assert records[0] == TraceRecord(1.0, 0, (12.0, -12.0))
        assert records == list(any_trace)  # records compare as values

    def test_len_matches_records(self, any_trace):
        assert len(any_trace) == 5

    def test_only_a_scalar_trace_lists_crossings(self, any_trace):
        if any_trace.values.ndim == 1:
            assert any_trace.crossings(10.0, 20.0).tolist() == [0, 1, 2, 3]
            return
        with pytest.raises(ValueError, match="point trace"):
            any_trace.crossings(10.0, 20.0)
        assert "_crossings" not in vars(any_trace)


class TestTransforms:
    def test_restrict_streams_keeps_prefix(self, any_trace):
        restricted = any_trace.restrict_streams(2)
        assert restricted.n_streams == 2
        assert all(r.stream_id < 2 for r in restricted)
        assert restricted.n_records == 3  # records of streams 0 and 1
        keep = any_trace.stream_ids < 2
        np.testing.assert_array_equal(restricted.values, any_trace.values[keep])
        np.testing.assert_array_equal(
            restricted.initial_values, any_trace.initial_values[:2]
        )

    def test_restrict_streams_bounds(self, any_trace):
        with pytest.raises(ValueError):
            any_trace.restrict_streams(0)
        with pytest.raises(ValueError):
            any_trace.restrict_streams(99)

    @SHAPES
    @given(st.integers(1, 4))
    def test_restrict_preserves_relative_order(self, shape, n):
        trace = make_trace(
            [1.0, 1.0, 2.0, 3.0], [0, 3, 1, 0], [1.0, 2.0, 3.0, 4.0], shape=shape
        )
        restricted = trace.restrict_streams(n)
        assert np.all(np.diff(restricted.times) >= 0)
        assert restricted.values.shape[1:] == shape


class TestSerialization:
    def test_save_load_roundtrip(self, any_trace, tmp_path):
        path = tmp_path / "trace.npz"
        any_trace.save(path)
        loaded = StreamTrace.load(path)
        np.testing.assert_array_equal(
            loaded.initial_values, any_trace.initial_values
        )
        np.testing.assert_array_equal(loaded.times, any_trace.times)
        np.testing.assert_array_equal(loaded.stream_ids, any_trace.stream_ids)
        np.testing.assert_array_equal(loaded.values, any_trace.values)
        assert loaded.values.shape == any_trace.values.shape
        assert loaded.horizon == any_trace.horizon


class TestPredecessorIndex:
    """``previous_record`` is derived state kept on the instance: built
    once, never a field, never in the way of the fields' semantics."""

    def test_built_once_and_correct(self, any_trace):
        index = any_trace.previous_record
        assert index.tolist() == [-1, -1, -1, 0, -1]
        assert any_trace.previous_record is index

    def test_not_a_field(self, any_trace):
        any_trace.previous_record
        assert any_trace == any_trace
        names = {f.name for f in dataclasses.fields(any_trace)}
        assert "previous_record" not in names
        assert dataclasses.asdict(any_trace).keys() == names
        assert "previous_record" not in vars(dataclasses.replace(any_trace))

    def test_save_load_neither_carries_nor_minds_it(self, manual_trace, tmp_path):
        manual_trace.previous_record
        manual_trace.save(tmp_path / "trace.npz")
        with np.load(tmp_path / "trace.npz") as data:
            assert sorted(data.files) == [
                "horizon", "initial_values", "stream_ids", "times", "values",
            ]
        loaded = StreamTrace.load(tmp_path / "trace.npz")
        assert "previous_record" not in vars(loaded)
        assert loaded.previous_record.tolist() == [-1, -1, -1, 0, -1]

    def test_transforms_build_their_own(self, manual_trace):
        manual_trace.previous_record
        restricted = manual_trace.restrict_streams(2)  # drops streams 2, 3
        assert "previous_record" not in vars(restricted)
        assert restricted.previous_record.tolist() == [-1, -1, 0]
        assert manual_trace.previous_record.tolist() == [-1, -1, -1, 0, -1]
