"""Tests for the value-based tolerance comparator (Figure 1 prior art)."""

import numpy as np
import pytest

from repro.api import Deployment, Engine, QuerySpec
from repro.network.accounting import MessageLedger
from repro.network.channel import Channel
from repro.queries.knn import TopKQuery
from repro.streams.synthetic import SyntheticConfig, generate_synthetic_trace
from repro.streams.trace import StreamTrace
from repro.valuebased.protocol import ValueToleranceTopKProtocol
from repro.valuebased.source import WindowFilterSource


def run_value_tolerance(trace, query, eps, check_every=1):
    """One value-eps run through the engine."""
    spec = QuerySpec("value-eps", query, options={"eps": eps})
    return Engine().run(spec, trace, Deployment.single(check_every=check_every))


def three_streams(records=()):
    """Streams 0..2 starting at 1, 5 and 3; *records* are ``(time, id,
    value)``."""
    times, ids, values = zip(*records) if records else ((), (), ())
    return StreamTrace(
        initial_values=np.array([1.0, 5.0, 3.0]),
        times=np.array(times, dtype=np.float64),
        stream_ids=np.array(ids, dtype=np.int64),
        values=np.array(values, dtype=np.float64),
        horizon=2.0,
    )


@pytest.fixture(scope="module")
def trace():
    return generate_synthetic_trace(
        SyntheticConfig(n_streams=100, horizon=200.0, seed=5)
    )


class TestWindowFilterSource:
    def make(self, width, initial=10.0):
        ledger = MessageLedger()
        channel = Channel(ledger)
        received = []
        channel.bind_server(received.append)
        source = WindowFilterSource(0, initial, channel, width=width)
        return source, received

    def test_reports_only_outside_window(self):
        source, received = self.make(width=10.0)
        source.apply_value(14.0, 1.0)  # inside +-5
        assert received == []
        source.apply_value(15.5, 2.0)  # escapes
        assert len(received) == 1

    def test_window_recenters_after_report(self):
        source, received = self.make(width=10.0)
        source.apply_value(16.0, 1.0)  # report, recenter at 16
        source.apply_value(20.0, 2.0)  # inside new window [11, 21]
        assert len(received) == 1
        source.apply_value(22.0, 3.0)  # escapes new window
        assert len(received) == 2

    def test_zero_width_reports_every_change(self):
        source, received = self.make(width=0.0)
        source.apply_value(10.0001, 1.0)
        source.apply_value(10.0002, 2.0)
        assert len(received) == 2

    def test_negative_width_rejected(self):
        with pytest.raises(ValueError):
            self.make(width=-1.0)


class TestProtocol:
    def test_answer_from_known_values(self):
        query = TopKQuery(k=2)
        seeded = run_value_tolerance(three_streams(), query, 10.0)
        assert seeded.final_answer == frozenset({1, 2})
        updated = run_value_tolerance(three_streams([(1.0, 0, 100.0)]), query, 10.0)
        assert updated.final_answer == frozenset({0, 1})

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError):
            run_value_tolerance(three_streams(), TopKQuery(k=1), -1.0)

    def test_answer_before_seed_is_empty(self):
        assert ValueToleranceTopKProtocol(TopKQuery(k=1), 1.0).answer == frozenset()


class TestRun:
    def test_value_guarantee_always_held(self, trace):
        for eps in (5.0, 50.0, 500.0):
            result = run_value_tolerance(trace, TopKQuery(k=5), eps)
            assert result.extras["value_guarantee_held"], eps

    def test_messages_decrease_with_eps(self, trace):
        small = run_value_tolerance(trace, TopKQuery(k=5), 5.0, check_every=0)
        large = run_value_tolerance(trace, TopKQuery(k=5), 500.0, check_every=0)
        assert large.maintenance_messages < small.maintenance_messages

    def test_rank_quality_degrades_with_eps(self, trace):
        tight = run_value_tolerance(trace, TopKQuery(k=5), 5.0)
        loose = run_value_tolerance(trace, TopKQuery(k=5), 800.0)
        assert loose.extras["worst_rank"] > tight.extras["worst_rank"]

    def test_worst_rank_at_least_k(self):
        trace = StreamTrace(
            initial_values=np.array([1.0, 2.0, 3.0]),
            times=np.array([1.0]),
            stream_ids=np.array([0]),
            values=np.array([1.5]),
            horizon=2.0,
        )
        result = run_value_tolerance(trace, TopKQuery(k=2), 1000.0)
        assert result.extras["worst_rank"] >= 2
