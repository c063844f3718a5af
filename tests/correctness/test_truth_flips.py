"""Truth flips known before the run (DESIGN.md §14).

A record's truth flip depends on its payload and its stream's previous
record only, so a checked run with running counts builds the whole flip
column up front (:func:`truth_flips`, bound by
``ToleranceChecker.bind_records``) and the oracle hook does work only at
a record that flips.  The per-record ``Oracle.apply`` is the reference:
hypothesis draws repeated ids, payloads exactly on the closed range
bounds, records past the horizon and several frontiers, for the scalar
range query and for the spatial one over ``(m, 2)`` points (whose
traces keep no predecessor index).  Bound records and hook calls that
disagree in count or order must raise, never miscount.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FractionTolerance, RangeQuery, UniformLatency
from repro.api import QuerySpec
from repro.correctness.checker import ToleranceChecker, truth_flips
from repro.correctness.oracle import Oracle
from repro.runtime.session import ExecutionSession
from repro.spatial.geometry import BoxRegion
from repro.spatial.oracle import SpatialOracle
from repro.spatial.queries import SpatialRangeQuery
from repro.state.runs import previous_in_stream
from repro.state.table import StreamStateTable
from repro.streams.trace import StreamTrace

N = 5
#: Closed bounds on the drawn grid: a payload can sit exactly on them.
SCALAR = RangeQuery(3.0, 6.0)
SPATIAL = SpatialRangeQuery(BoxRegion([3.0, 3.0], [6.0, 6.0]))
TOLERANCE = FractionTolerance(0.2, 0.2)

coordinate = st.sampled_from([0.0, 2.0, 3.0, 4.5, 6.0, 7.0, 9.0])


@st.composite
def records(draw, dims):
    """``(initial payloads, ids, payloads)``: ids repeat freely."""
    m = draw(st.integers(0, 30))
    payload = coordinate if dims == 1 else st.tuples(coordinate, coordinate)
    initial = draw(st.lists(payload, min_size=N, max_size=N))
    ids = draw(st.lists(st.integers(0, N - 1), min_size=m, max_size=m))
    values = draw(st.lists(payload, min_size=m, max_size=m))
    shape = (m,) if dims == 1 else (m, 2)
    return (
        np.array(initial, dtype=np.float64),
        np.array(ids, dtype=np.int64),
        np.array(values, dtype=np.float64).reshape(shape),
    )


def reference_flips(oracle_cls, query, initial, ids, payloads):
    """Per-record ``Oracle.apply``: did the stream's truth change?"""
    oracle = oracle_cls(initial)
    oracle.register_query(query)
    truth = oracle.truth_mask(query)
    flips = []
    for stream_id, payload in zip(ids.tolist(), payloads):
        was = bool(truth[stream_id])
        oracle.apply(stream_id, payload)
        flips.append(bool(truth[stream_id]) != was)
    return np.array(flips, dtype=bool), oracle


CASES = [(Oracle, SCALAR, 1), (SpatialOracle, SPATIAL, 2)]


@pytest.mark.parametrize("oracle_cls, query, dims", CASES, ids=["scalar", "spatial"])
def test_the_flip_column_is_the_per_record_oracle(oracle_cls, query, dims):
    @given(drawn=records(dims))
    @settings(max_examples=300, deadline=None, database=None)
    def holds(drawn):
        initial, ids, payloads = drawn
        expected, oracle = reference_flips(oracle_cls, query, initial, ids, payloads)
        start = np.asarray(query.matches_array(initial), dtype=bool)
        flips = truth_flips(query, start, ids, payloads, previous_in_stream(ids))
        assert flips.tolist() == expected.tolist()
        # One later-rows-win scatter settles the values per-record
        # applies leave, and the truth with them.
        settled = oracle_cls(initial)
        settled.register_query(query)
        settled.apply_many(ids, payloads)
        assert np.array_equal(settled.values, oracle.values)
        assert np.array_equal(settled.truth_mask(query), oracle.truth_mask(query))

    holds()


# ----------------------------------------------------------------------
# A bound checker inside a replay: frontiers, horizon, latency
# ----------------------------------------------------------------------
def _trace(initial, ids, payloads):
    times = np.arange(1.0, len(ids) + 1.0)
    return StreamTrace(
        initial_values=initial, times=times, stream_ids=ids,
        values=payloads, horizon=len(ids) + 1.0,
    )


def _checked_replay(dims, trace, horizon, frontiers, bind, latency):
    stack = "streams" if dims == 1 else "spatial"
    query = SCALAR if dims == 1 else SPATIAL
    protocol = QuerySpec(
        "ft-nrp" if dims == 1 else "ft-nrp-2d", query, TOLERANCE
    ).build()
    session = ExecutionSession.assemble(stack, trace, protocol, latency=latency)
    oracle = session.vocabulary.oracle(trace.initial_values)
    oracle.register_query(query)
    checker = ToleranceChecker(
        oracle, query, TOLERANCE, lambda: protocol.answer_mask,
        answer_table=session.host.state,
    )
    payloads = trace.values
    session.initialize()
    if bind:
        n = int(np.searchsorted(trace.times, horizon, side="right"))
        checker.bind_records(trace.stream_ids[:n], payloads[:n])
    session.replay(
        trace.times, trace.stream_ids, payloads, horizon=horizon,
        oracle_apply=checker.apply, after_apply=checker.check,
        frontiers=frontiers,
    )
    checker.settle_records()
    return (
        session.snapshot(),
        checker.report,
        oracle.values.tolist(),
        oracle.truth_mask(query).tolist(),
    )


@pytest.mark.parametrize("dims", [1, 2], ids=["scalar", "spatial"])
@pytest.mark.parametrize("latency", [None, UniformLatency(0.5, 3.0, seed=2)])
def test_a_bound_checker_reports_what_per_record_applies_report(dims, latency):
    @given(
        drawn=records(dims),
        past=st.integers(0, 5),
        cuts=st.lists(st.integers(0, 30), max_size=3),
    )
    @settings(max_examples=60, deadline=None, database=None)
    def holds(drawn, past, cuts):
        initial, ids, payloads = drawn
        # The last *past* records lie beyond the replay's horizon.
        kept = max(0, len(ids) - past)
        trace = _trace(initial, ids, payloads)
        frontiers = sorted({c for c in cuts if c < kept} | {kept})
        run = (dims, trace, kept + 0.5, frontiers)
        bound = _checked_replay(*run, True, latency)
        assert bound == _checked_replay(*run, False, latency)

    holds()


# ----------------------------------------------------------------------
# Bound records and hook calls must agree
# ----------------------------------------------------------------------
def _bound_checker(ids, values):
    oracle = Oracle(np.array([0.0, 4.0, 9.0]))
    oracle.register_query(SCALAR)
    table = StreamStateTable(3)
    checker = ToleranceChecker(
        oracle, SCALAR, TOLERANCE, lambda: table.answer_mask, answer_table=table
    )
    checker.bind_records(np.array(ids), np.array(values))
    return checker


def test_a_hook_call_out_of_order_raises():
    checker = _bound_checker([0, 1, 2], [4.0, 0.0, 9.0])
    checker.apply(0, 4.0)
    with pytest.raises(ValueError, match="stream 2 where the bound records hold 1"):
        checker.apply(2, 9.0)


def test_a_hook_call_past_the_bound_records_raises():
    checker = _bound_checker([0, 1], [4.0, 0.0])
    checker.apply(0, 4.0)
    checker.apply(1, 0.0)
    with pytest.raises(ValueError, match="bound records hold None"):
        checker.apply(1, 5.0)


def test_a_bound_record_the_hook_never_saw_raises_at_settle():
    checker = _bound_checker([0, 1], [4.0, 0.0])
    checker.apply(0, 4.0)
    with pytest.raises(ValueError, match="fewer records than were bound"):
        checker.settle_records()


def test_without_running_counts_binding_is_a_no_op():
    """A rank query (or an answer the table does not hold) keeps the
    per-record oracle: nothing is bound, every record is applied."""
    oracle = Oracle(np.array([0.0, 4.0, 9.0]))
    oracle.register_query(SCALAR)
    checker = ToleranceChecker(oracle, SCALAR, TOLERANCE, lambda: np.zeros(3, bool))
    checker.bind_records(np.array([0, 1]), np.array([4.0, 0.0]))
    checker.apply(2, 5.0)  # not a bound record: no ordering to break
    checker.settle_records()
    assert oracle.values.tolist() == [0.0, 4.0, 5.0]
