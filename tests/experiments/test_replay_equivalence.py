"""Acceptance: batched replay reproduces every figure byte-for-byte.

Each seed figure experiment (01, 09-15) is run twice at the smoke
profile — once forcing faithful per-event replay, once forcing the
batched fast path — and must produce identical series.  The series are
projections of the per-run ``MessageLedger`` snapshots, whose direct
equality is additionally covered by ``tests/runtime/test_session.py``.

The state-engine coverage below closes the loop on the columnar
refactor: after a replay in either mode, the shared
:class:`~repro.state.table.StreamStateTable` must agree row-for-row with
the ground truth it claims to be the single source of — the deployed
filter constraints and believed memberships actually installed at the
sources, and the answer the protocol reports.
"""

import pytest

from repro.api import Engine
from repro.experiments import FIGURES, evaluate
from repro.protocols.ft_nrp import FractionToleranceRangeProtocol
from repro.protocols.ft_rp import FractionToleranceKnnProtocol
from repro.protocols.rtp import RankToleranceProtocol
from repro.protocols.zt_nrp import ZeroToleranceRangeProtocol
from repro.protocols.zt_rp import ZeroToleranceKnnProtocol
from repro.queries.knn import KnnQuery, TopKQuery
from repro.queries.range_query import RangeQuery
from repro.runtime.session import ExecutionSession
from repro.streams.synthetic import SyntheticConfig, generate_synthetic_trace
from repro.tolerance.fraction_tolerance import FractionTolerance
from repro.tolerance.rank_tolerance import RankTolerance
from replay_forcing import run_forced


@pytest.mark.parametrize("name", list(FIGURES))
def test_figure_series_identical_across_replay_modes(name):
    event = run_forced("event", lambda: evaluate(name, profile="smoke", seed=0))
    batch = run_forced("batch", lambda: evaluate(name, profile="smoke", seed=0))
    assert event.x_values == batch.x_values
    assert event.series == batch.series


def _state_zoo():
    return [
        ("zt-nrp", lambda: ZeroToleranceRangeProtocol(RangeQuery(400.0, 600.0))),
        (
            "ft-nrp",
            lambda: FractionToleranceRangeProtocol(
                RangeQuery(400.0, 600.0), FractionTolerance(0.3, 0.3)
            ),
        ),
        ("zt-rp", lambda: ZeroToleranceKnnProtocol(KnnQuery(q=500.0, k=6))),
        (
            "ft-rp",
            lambda: FractionToleranceKnnProtocol(
                KnnQuery(q=500.0, k=6), FractionTolerance(0.25, 0.25)
            ),
        ),
        (
            "rtp",
            lambda: RankToleranceProtocol(
                TopKQuery(k=6), RankTolerance(k=6, r=3)
            ),
        ),
    ]


@pytest.fixture(scope="module")
def state_trace():
    return generate_synthetic_trace(
        SyntheticConfig(n_streams=90, horizon=200.0, seed=23)
    )


@pytest.mark.parametrize(
    "name,factory", _state_zoo(), ids=[n for n, _ in _state_zoo()]
)
@pytest.mark.parametrize("mode", ["event", "batch"])
def test_state_table_is_single_source_of_truth(state_trace, name, factory, mode):
    """After replay, table rows == the filters actually at the sources."""
    protocol = factory()
    session = ExecutionSession.for_streams(state_trace, protocol)
    session.initialize(time=0.0)
    session.replay_trace(state_trace, mode=mode)
    table = session.host.state
    for source in session.sources:
        sid = source.stream_id
        constraint = source.membership.container
        assert constraint is not None, "every protocol deploys everywhere"
        assert table.scannable[sid]
        assert table.lower[sid] == constraint.lower
        assert table.upper[sid] == constraint.upper
        assert bool(table.inside[sid]) == source.membership.reported_inside
    assert protocol.answer == table.answer_snapshot()


@pytest.mark.parametrize(
    "name,factory", _state_zoo(), ids=[n for n, _ in _state_zoo()]
)
def test_state_engine_final_state_identical_across_modes(
    state_trace, name, factory
):
    """Answer masks and deployed-bound columns agree event vs batch."""
    tables = {}
    for mode in ("event", "batch"):
        protocol = factory()
        result = run_forced(
            mode, lambda: Engine().run_protocol(state_trace, protocol)
        )
        tables[mode] = (result, protocol._state)
    event_result, event_table = tables["event"]
    batch_result, batch_table = tables["batch"]
    assert event_result.ledger == batch_result.ledger
    assert (
        event_table.answer_snapshot() == batch_table.answer_snapshot()
    )
    assert (event_table.lower == batch_table.lower).all()
    assert (event_table.upper == batch_table.upper).all()
    assert (event_table.inside == batch_table.inside).all()
