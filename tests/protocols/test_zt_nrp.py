"""Unit tests for ZT-NRP (zero-tolerance range protocol)."""

import numpy as np

from repro.api import Deployment, Engine
from repro.protocols.zt_nrp import ZeroToleranceRangeProtocol
from repro.queries.range_query import RangeQuery
from repro.streams.trace import StreamTrace


def test_answers_always_exact(small_trace):
    result = Engine().run_protocol(
        small_trace,
        ZeroToleranceRangeProtocol(RangeQuery(400, 600)),
        deployment=Deployment.single(check_every=1, strict=True),
    )
    assert result.tolerance_ok


def test_cost_equals_boundary_crossings(manual_trace):
    # [10, 20]; initial [5, 15, 25, 12]; updates:
    # t1: s0 5->12  (enters)   t2: s1 15->30 (leaves)
    # t3: s2 25->18 (enters)   t4: s0 12->4  (leaves)
    # t5: s3 12->13 (stays in — no message)
    result = Engine().run_protocol(
        manual_trace, ZeroToleranceRangeProtocol(RangeQuery(10.0, 20.0))
    )
    assert result.maintenance_messages == 4
    assert result.update_messages == 4
    assert result.final_answer == frozenset({2, 3})


def test_never_costs_more_than_no_filter(small_trace):
    zt = Engine().run_protocol(
        small_trace, ZeroToleranceRangeProtocol(RangeQuery(400, 600))
    )
    assert zt.maintenance_messages <= small_trace.n_records


def test_initialization_cost_is_3n(small_trace):
    result = Engine().run_protocol(
        small_trace, ZeroToleranceRangeProtocol(RangeQuery(400, 600))
    )
    # n probes (2 messages each) + n constraint deployments.
    assert result.initialization_messages == 3 * small_trace.n_streams


def test_empty_range_intersection():
    trace = StreamTrace(
        initial_values=np.array([100.0, 200.0]),
        times=np.array([1.0]),
        stream_ids=np.array([0]),
        values=np.array([150.0]),
        horizon=2.0,
    )
    result = Engine().run_protocol(
        trace,
        ZeroToleranceRangeProtocol(RangeQuery(0.0, 10.0)),
        deployment=Deployment.single(check_every=1, strict=True),
    )
    assert result.final_answer == frozenset()
    assert result.maintenance_messages == 0
