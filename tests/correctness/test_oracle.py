"""Unit tests for the ground-truth oracle."""

import numpy as np
import pytest

from repro.api import Deployment, Engine
from repro.correctness.oracle import Oracle
from repro.queries.knn import KnnQuery, TopKQuery
from repro.queries.range_query import RangeQuery


def test_tracks_applied_values():
    oracle = Oracle(np.array([1.0, 2.0, 3.0]))
    oracle.apply(1, 10.0)
    assert oracle.value_of(1) == 10.0
    assert oracle.value_of(0) == 1.0


def test_values_view_is_read_only():
    oracle = Oracle(np.array([1.0]))
    with pytest.raises(ValueError):
        oracle.values[0] = 5.0


def test_oracle_copies_initial_values():
    initial = np.array([1.0, 2.0])
    oracle = Oracle(initial)
    oracle.apply(0, 99.0)
    assert initial[0] == 1.0


def test_range_truth_without_registration():
    oracle = Oracle(np.array([5.0, 15.0, 25.0]))
    query = RangeQuery(10.0, 20.0)
    assert oracle.true_answer(query) == frozenset({1})


def test_registered_range_truth_is_incremental():
    oracle = Oracle(np.array([5.0, 15.0, 25.0]))
    query = RangeQuery(10.0, 20.0)
    oracle.register_query(query)
    assert oracle.true_answer(query) == frozenset({1})
    oracle.apply(0, 12.0)
    oracle.apply(1, 100.0)
    assert oracle.true_answer(query) == frozenset({0})


def test_registered_and_bruteforce_agree_over_random_updates():
    rng = np.random.default_rng(0)
    oracle = Oracle(rng.uniform(0, 100, size=50))
    query = RangeQuery(30.0, 60.0)
    oracle.register_query(query)
    for _ in range(300):
        oracle.apply(int(rng.integers(0, 50)), float(rng.uniform(0, 100)))
        assert oracle.true_answer(query) == query.true_answer(oracle.values)


def test_double_registration_is_idempotent():
    oracle = Oracle(np.array([15.0]))
    query = RangeQuery(10.0, 20.0)
    oracle.register_query(query)
    oracle.register_query(query)
    oracle.apply(0, 5.0)
    assert oracle.true_answer(query) == frozenset()


def test_rank_based_truth():
    oracle = Oracle(np.array([10.0, 50.0, 30.0]))
    assert oracle.true_answer(TopKQuery(k=2)) == frozenset({1, 2})
    oracle.apply(0, 100.0)
    assert oracle.true_answer(TopKQuery(k=2)) == frozenset({0, 1})
    assert oracle.true_answer(KnnQuery(q=45.0, k=1)) == frozenset({1})


def test_non_1d_initial_values_rejected():
    with pytest.raises(ValueError):
        Oracle(np.zeros((2, 2)))


def test_unsupported_query_type_rejected():
    oracle = Oracle(np.array([1.0]))
    with pytest.raises(TypeError):
        oracle.true_answer(object())  # type: ignore[arg-type]


class TestRegisterQuery:
    """Satellite fix: every query kind registers, not just RangeQuery."""

    def test_range_query_gets_incremental_maintenance(self):
        oracle = Oracle(np.array([15.0, 25.0]))
        query = RangeQuery(10.0, 20.0)
        oracle.register_query(query)
        assert query in oracle.registered_queries
        oracle.apply(1, 12.0)
        assert oracle.true_answer(query) == frozenset({0, 1})

    def test_rank_queries_register(self):
        from repro.queries.knn import KMinQuery

        oracle = Oracle(np.array([10.0, 50.0, 30.0]))
        for query in (
            TopKQuery(k=2),
            KnnQuery(q=30.0, k=1),
            KMinQuery(k=1),
        ):
            oracle.register_query(query)
        assert len(oracle.registered_queries) == 3
        assert oracle.true_answer(TopKQuery(k=2)) == frozenset({1, 2})

    def test_registration_is_idempotent(self):
        oracle = Oracle(np.array([1.0]))
        query = TopKQuery(k=1)
        oracle.register_query(query)
        oracle.register_query(query)
        assert oracle.registered_queries == [query]

    def test_unsupported_type_raises_at_registration(self):
        oracle = Oracle(np.array([1.0]))
        with pytest.raises(TypeError):
            oracle.register_query(object())  # type: ignore[arg-type]

    def test_checked_rank_query_run_registers_with_oracle(self, monkeypatch):
        """run_protocol registers non-range queries the same way."""
        from repro.protocols.rtp import RankToleranceProtocol
        from repro.streams.synthetic import (
            SyntheticConfig,
            generate_synthetic_trace,
        )
        from repro.tolerance.rank_tolerance import RankTolerance

        registered = []
        original = Oracle.register_query

        def spy(self, query):
            registered.append(query)
            return original(self, query)

        monkeypatch.setattr(Oracle, "register_query", spy)
        trace = generate_synthetic_trace(
            SyntheticConfig(n_streams=30, horizon=50.0, seed=2)
        )
        query = TopKQuery(k=3)
        tolerance = RankTolerance(k=3, r=2)
        Engine().run_protocol(
            trace,
            RankToleranceProtocol(query, tolerance),
            tolerance=tolerance,
            deployment=Deployment.single(check_every=1, strict=True),
        )
        assert registered == [query]
