"""A broadcast carries "every row" as a ``range`` (DESIGN.md §12).

``deploy_many(None, ...)`` hands the kernels ``range(n)``: the shard
runs are cut at the shard bounds, the rows are plane slices, and no
pass over an id column proves what the range already says.  An id
column is built only for a consumer that needs each id — a
self-correction, the per-message loop.  A fresh
deploy's stride-0 ``BELIEF_NONE`` column skips the stale-belief test.
The ledgers are held to the ordered deploy loop by
``test_deploy_many.py``; this file pins the mechanism.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.network.channel as channel_module
import repro.streams.control as control_module
from repro import RangeQuery
from repro.api import QuerySpec, Workload
from repro.network.messages import MessageKind
from repro.runtime.membership import (
    BELIEF_NONE,
    belief_column,
    deployment_outcome_columns,
)
from repro.runtime.session import ExecutionSession
from repro.state.sharding import id_column, owner_runs, shard_ranges
from control_forcing import per_message


@given(data=st.data(), n=st.integers(1, 40), shards=st.integers(1, 8))
@settings(max_examples=300, deadline=None, database=None)
def test_a_range_splits_where_its_id_column_splits(data, n, shards):
    bounds = [hi for _, hi in shard_ranges(n, min(shards, n))]
    lo = data.draw(st.integers(0, n))
    hi = data.draw(st.integers(lo, n))
    assert owner_runs(bounds, range(lo, hi)) == owner_runs(bounds, id_column(range(lo, hi)))
    assert id_column(range(lo, hi)).tolist() == list(range(lo, hi))


@pytest.fixture
def materialized(monkeypatch):
    """Every id column built from a range by the control plane."""
    calls = []

    def spy(stream_ids):
        if isinstance(stream_ids, range):
            calls.append(stream_ids)
        return id_column(stream_ids)

    monkeypatch.setattr(control_module, "id_column", spy)
    monkeypatch.setattr(channel_module, "id_column", spy)
    return calls


def _initialized(n_shards):
    """ZT-NRP's initialization: a fresh broadcast of the range bound."""
    trace = Workload.synthetic(n_streams=30, horizon=5.0, seed=1).materialize()
    protocol = QuerySpec("zt-nrp", RangeQuery(400.0, 600.0)).build()
    session = ExecutionSession.assemble("streams", trace, protocol, n_shards)
    session.initialize()
    return session


@pytest.mark.parametrize("n_shards", [None, 3])
def test_a_fresh_broadcast_builds_no_id_column(materialized, n_shards):
    session = _initialized(n_shards)
    assert materialized == []
    assert session.ledger.count(MessageKind.CONSTRAINT) == 30
    assert session.host.state.scannable.all()


def test_each_shard_hands_the_gate_its_run_as_a_range():
    with per_message() as consulted:
        session = _initialized(3)
    # Probes first (the probe-all's arrays), then the broadcast, cut at
    # the shard bounds; declined, it still charges every message.
    probes, broadcast = consulted[:-3], consulted[-3:]
    assert all(isinstance(ids, np.ndarray) for ids in probes)
    assert broadcast == [range(lo, hi) for lo, hi in shard_ranges(30, 3)]
    assert session.ledger.count(MessageKind.CONSTRAINT) == 30


def test_a_constant_fresh_belief_reports_nothing():
    values = np.array([1.0, 5.0, 9.0, 5.0])
    fresh = belief_column(None, values.shape)
    assert not any(fresh.strides) and not fresh.flags.writeable
    full = np.full(values.shape, BELIEF_NONE, dtype=np.int8)
    for lower, upper in [(4.0, 6.0), (np.inf, np.inf), (-np.inf, np.inf)]:
        inside, report = deployment_outcome_columns(values, lower, upper, fresh)
        expected = deployment_outcome_columns(values, lower, upper, full)
        assert inside.tolist() == expected[0].tolist()
        assert report.tolist() == expected[1].tolist() == [False] * 4
