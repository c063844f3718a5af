"""``FilterProtocol.answer_mask``: ``A(t)`` as the checker's column."""

import numpy as np
import pytest

from repro.api import Engine, QuerySpec
from repro.protocols.no_filter import NoFilterProtocol
from repro.protocols.rtp import RankToleranceProtocol
from repro.protocols.zt_nrp import ZeroToleranceRangeProtocol
from repro.queries.knn import TopKQuery
from repro.queries.range_query import RangeQuery
from repro.runtime.session import ExecutionSession
from repro.spatial.queries import SpatialKnnQuery
from repro.spatial.workloads import generate_moving_objects_trace
from repro.tolerance.rank_tolerance import RankTolerance


def members(mask: np.ndarray) -> frozenset:
    return frozenset(np.flatnonzero(mask).tolist())


def test_table_backed_protocols_expose_the_table_column_read_only(small_trace):
    for protocol in (
        ZeroToleranceRangeProtocol(RangeQuery(400.0, 600.0)),
        RankToleranceProtocol(TopKQuery(k=5), RankTolerance(k=5, r=3)),
    ):
        Engine().run_protocol(small_trace, protocol)
        mask = protocol.answer_mask
        assert protocol.answer and members(mask) == protocol.answer
        assert np.shares_memory(mask, protocol._state.answer_mask)
        with pytest.raises(ValueError):
            mask[0] = True


def test_an_answer_kept_in_no_column_is_scattered(small_trace):
    protocol = NoFilterProtocol(TopKQuery(k=5))
    Engine().run_protocol(small_trace, protocol)
    assert len(protocol.answer) == 5
    assert members(protocol.answer_mask) == protocol.answer

    spatial = QuerySpec(
        "no-filter-2d", SpatialKnnQuery(q=[500.0, 500.0], k=4)
    ).build()
    trace = generate_moving_objects_trace(n_objects=30, horizon=40.0, seed=1)
    session = ExecutionSession.for_spatial(trace, spatial)
    session.initialize(time=0.0)
    session.replay_trace(trace)
    assert len(spatial.answer) == 4
    assert members(spatial.answer_mask) == spatial.answer


def test_overriding_answer_moves_the_column_with_it(small_trace):
    """The checker reads the column, so a subclass that reports a
    different ``answer`` must be judged on what it reports."""

    class Complement(ZeroToleranceRangeProtocol):
        @property
        def answer(self):
            return frozenset(range(small_trace.n_streams)) - super().answer

    protocol = Complement(RangeQuery(400.0, 600.0))
    Engine().run_protocol(small_trace, protocol)
    assert members(protocol.answer_mask) == protocol.answer
    assert members(protocol._state.answer_mask).isdisjoint(protocol.answer)
