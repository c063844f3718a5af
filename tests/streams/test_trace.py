"""Unit + property tests for trace containers."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.streams.trace import StreamTrace, TraceRecord


def make_trace(times, ids, values, n_streams=5, horizon=None):
    times = np.asarray(times, dtype=float)
    return StreamTrace(
        initial_values=np.zeros(n_streams),
        times=times,
        stream_ids=np.asarray(ids, dtype=np.int64),
        values=np.asarray(values, dtype=float),
        horizon=horizon if horizon is not None else (times[-1] if len(times) else 0.0),
    )


class TestValidation:
    def test_unsorted_times_rejected(self):
        with pytest.raises(ValueError):
            make_trace([2.0, 1.0], [0, 1], [1.0, 2.0])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            StreamTrace(
                initial_values=np.zeros(2),
                times=np.array([1.0]),
                stream_ids=np.array([0, 1]),
                values=np.array([1.0]),
                horizon=2.0,
            )

    def test_unknown_stream_id_rejected(self):
        with pytest.raises(ValueError):
            make_trace([1.0], [7], [1.0], n_streams=3)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            make_trace([-1.0], [0], [1.0])

    def test_horizon_before_last_record_rejected(self):
        with pytest.raises(ValueError):
            make_trace([5.0], [0], [1.0], horizon=3.0)

    def test_empty_trace_is_valid(self):
        trace = make_trace([], [], [], horizon=10.0)
        assert trace.n_records == 0
        assert list(trace) == []


class TestAccessors:
    def test_iteration_yields_records(self, manual_trace):
        records = list(manual_trace)
        assert records[0] == TraceRecord(1.0, 0, 12.0)
        assert len(records) == manual_trace.n_records == 5

    def test_len_matches_records(self, manual_trace):
        assert len(manual_trace) == 5


class TestTransforms:
    def test_restrict_streams_keeps_prefix(self, manual_trace):
        restricted = manual_trace.restrict_streams(2)
        assert restricted.n_streams == 2
        assert all(r.stream_id < 2 for r in restricted)
        assert restricted.n_records == 3  # records of streams 0 and 1

    def test_restrict_streams_bounds(self, manual_trace):
        with pytest.raises(ValueError):
            manual_trace.restrict_streams(0)
        with pytest.raises(ValueError):
            manual_trace.restrict_streams(99)

    @given(st.integers(1, 4))
    def test_restrict_preserves_relative_order(self, n):
        trace = make_trace(
            [1.0, 1.0, 2.0, 3.0], [0, 3, 1, 0], [1.0, 2.0, 3.0, 4.0]
        )
        restricted = trace.restrict_streams(n)
        assert np.all(np.diff(restricted.times) >= 0)


class TestSerialization:
    def test_save_load_roundtrip(self, manual_trace, tmp_path):
        path = tmp_path / "trace.npz"
        manual_trace.save(path)
        loaded = StreamTrace.load(path)
        np.testing.assert_array_equal(
            loaded.initial_values, manual_trace.initial_values
        )
        np.testing.assert_array_equal(loaded.times, manual_trace.times)
        np.testing.assert_array_equal(loaded.values, manual_trace.values)
        assert loaded.horizon == manual_trace.horizon


class TestPredecessorIndex:
    """``previous_record`` is derived state kept on the instance: built
    once, never a field, never in the way of the fields' semantics."""

    def test_built_once_and_correct(self, manual_trace):
        index = manual_trace.previous_record
        assert index.tolist() == [-1, -1, -1, 0, -1]
        assert manual_trace.previous_record is index

    def test_not_a_field(self, manual_trace):
        manual_trace.previous_record
        assert manual_trace == manual_trace
        names = {f.name for f in dataclasses.fields(manual_trace)}
        assert "previous_record" not in names
        assert dataclasses.asdict(manual_trace).keys() == names
        assert "previous_record" not in vars(dataclasses.replace(manual_trace))

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

