"""Tests for workload crossing/churn analysis."""

import numpy as np
import pytest

from repro.analysis.crossings import (
    range_crossing_profile,
    rank_churn_profile,
)
from repro.api import Engine
from repro.protocols.zt_nrp import ZeroToleranceRangeProtocol
from repro.queries.knn import TopKQuery
from repro.queries.range_query import RangeQuery
from repro.streams.synthetic import SyntheticConfig, generate_synthetic_trace
from repro.streams.trace import StreamTrace


@pytest.fixture
def crossing_trace():
    # Stream 0: enters, leaves, enters again.  Stream 1: never crosses.
    return StreamTrace(
        initial_values=np.array([5.0, 15.0]),
        times=np.array([1.0, 2.0, 3.0, 4.0]),
        stream_ids=np.array([0, 0, 1, 0]),
        values=np.array([12.0, 5.0, 18.0, 11.0]),
        horizon=5.0,
    )


class TestRangeCrossings:
    def test_counts(self, crossing_trace):
        profile = range_crossing_profile(crossing_trace, RangeQuery(10.0, 20.0))
        assert profile.total_updates == 4
        assert profile.crossings == 3
        assert profile.crossing_streams == 1
        assert profile.per_stream == {0: 3}
        assert profile.initial_selectivity == 0.5
        assert profile.crossing_rate == 0.75

    def test_concentration(self, crossing_trace):
        profile = range_crossing_profile(crossing_trace, RangeQuery(10.0, 20.0))
        assert profile.concentration(1) == 1.0

    def test_empty_trace(self):
        trace = StreamTrace(
            initial_values=np.array([1.0]),
            times=np.array([]),
            stream_ids=np.array([]),
            values=np.array([]),
            horizon=1.0,
        )
        profile = range_crossing_profile(trace, RangeQuery(0.0, 10.0))
        assert profile.crossings == 0
        assert profile.crossing_rate == 0.0
        assert profile.concentration(5) == 0.0

    def test_crossings_equal_zt_nrp_cost(self):
        """The profile predicts ZT-NRP's maintenance message count."""
        trace = generate_synthetic_trace(
            SyntheticConfig(n_streams=80, horizon=200.0, seed=6)
        )
        query = RangeQuery(400.0, 600.0)
        profile = range_crossing_profile(trace, query)
        result = Engine().run_protocol(trace, ZeroToleranceRangeProtocol(query))
        assert profile.crossings == result.maintenance_messages


class TestRankChurn:
    def test_static_trace_has_no_churn(self):
        trace = StreamTrace(
            initial_values=np.array([1.0, 2.0, 3.0]),
            times=np.array([1.0]),
            stream_ids=np.array([0]),
            values=np.array([1.1]),  # stays rank 3 for top-k
            horizon=2.0,
        )
        profile = rank_churn_profile(trace, TopKQuery(k=2))
        assert profile.answer_changes == 0
        assert profile.churn_rate == 0.0

    def test_detects_answer_change(self):
        trace = StreamTrace(
            initial_values=np.array([1.0, 2.0, 3.0]),
            times=np.array([1.0]),
            stream_ids=np.array([0]),
            values=np.array([10.0]),  # leaps into the top-2
            horizon=2.0,
        )
        profile = rank_churn_profile(trace, TopKQuery(k=2))
        assert profile.answer_changes == 1
        assert profile.boundary_crossings == 1

    def test_sampling_thins_evaluation(self):
        trace = generate_synthetic_trace(
            SyntheticConfig(n_streams=40, horizon=150.0, seed=1)
        )
        dense = rank_churn_profile(trace, TopKQuery(k=5), sample_every=1)
        sparse = rank_churn_profile(trace, TopKQuery(k=5), sample_every=10)
        assert sparse.total_updates < dense.total_updates

    def test_invalid_sampling_rejected(self):
        trace = generate_synthetic_trace(
            SyntheticConfig(n_streams=10, horizon=20.0, seed=0)
        )
        with pytest.raises(ValueError):
            rank_churn_profile(trace, TopKQuery(k=2), sample_every=0)
