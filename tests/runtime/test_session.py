"""ExecutionSession: assembly, replay modes, and batched equivalence."""

import numpy as np
import pytest

from repro.api import Deployment, Engine, QuerySpec
from repro.protocols.ft_nrp import FractionToleranceRangeProtocol
from repro.protocols.ft_rp import FractionToleranceKnnProtocol
from repro.protocols.no_filter import NoFilterProtocol
from repro.protocols.rtp import RankToleranceProtocol
from repro.protocols.zt_nrp import ZeroToleranceRangeProtocol
from repro.protocols.zt_rp import ZeroToleranceKnnProtocol
from repro.queries.knn import KnnQuery, TopKQuery
from repro.queries.range_query import RangeQuery
from repro.runtime.session import ExecutionSession
from repro.streams.synthetic import SyntheticConfig, generate_synthetic_trace
from repro.streams.trace import StreamTrace
from repro.tolerance.fraction_tolerance import FractionTolerance
from repro.tolerance.rank_tolerance import RankTolerance
from replay_forcing import run_forced
from trace_cuts import head


@pytest.fixture(scope="module")
def trace():
    return generate_synthetic_trace(
        SyntheticConfig(n_streams=120, horizon=250.0, seed=11)
    )


def _protocol_zoo():
    return [
        ("no-filter", lambda: NoFilterProtocol(RangeQuery(400.0, 600.0))),
        ("zt-nrp", lambda: ZeroToleranceRangeProtocol(RangeQuery(400.0, 600.0))),
        (
            "ft-nrp",
            lambda: FractionToleranceRangeProtocol(
                RangeQuery(400.0, 600.0), FractionTolerance(0.3, 0.3)
            ),
        ),
        ("zt-rp", lambda: ZeroToleranceKnnProtocol(KnnQuery(q=500.0, k=8))),
        (
            "ft-rp",
            lambda: FractionToleranceKnnProtocol(
                KnnQuery(q=500.0, k=8), FractionTolerance(0.25, 0.25)
            ),
        ),
        (
            "rtp",
            lambda: RankToleranceProtocol(
                TopKQuery(k=8), RankTolerance(k=8, r=4)
            ),
        ),
    ]


@pytest.mark.parametrize(
    "name,factory", _protocol_zoo(), ids=[n for n, _ in _protocol_zoo()]
)
def test_batched_replay_ledger_identical(trace, name, factory):
    """Acceptance: batch mode == event mode, snapshot for snapshot."""
    event = run_forced(
        "event", lambda: Engine().run_protocol(trace, factory())
    )
    batch = run_forced(
        "batch", lambda: Engine().run_protocol(trace, factory())
    )
    assert event.ledger == batch.ledger
    assert event.final_answer == batch.final_answer


@pytest.mark.parametrize("batch_size", [1, 7, 64, 4096])
@pytest.mark.parametrize("name", ["zt-nrp", "ft-nrp", "rtp"])
def test_batch_size_does_not_change_results(trace, name, batch_size):
    """Chunk boundaries are invisible — on the columnar strategy
    (zt-nrp) and on the cursor (ft-nrp, rtp) alike.  The bounds are
    arguments of ``ExecutionSession.replay`` only; no config sets them."""
    factory = dict(_protocol_zoo())[name]
    reference = run_forced(
        "event", lambda: Engine().run_protocol(trace, factory())
    )
    protocol = factory()
    session = ExecutionSession.for_streams(trace, protocol)
    session.initialize()
    session.replay_trace(
        trace, mode="batch", batch_size=batch_size, min_chunk=min(batch_size, 32)
    )
    assert session.snapshot() == reference.ledger
    assert protocol.answer == reference.final_answer


@pytest.mark.parametrize("name", ["zt-nrp", "ft-nrp"])
def test_a_non_positive_chunk_bound_is_rejected(trace, name):
    """On the columnar strategy and on the cursor alike — a zero chunk
    would never advance."""
    session = ExecutionSession.for_streams(trace, dict(_protocol_zoo())[name]())
    session.initialize()
    with pytest.raises(ValueError, match="batch_size"):
        session.replay_trace(trace, mode="batch", batch_size=0)


@pytest.mark.parametrize("eps", [5.0, 60.0, 500.0])
def test_value_window_batched_identical(trace, eps):
    spec = QuerySpec("value-eps", TopKQuery(k=5), options={"eps": eps})
    event = run_forced("event", lambda: Engine().run(spec, trace))
    batch = run_forced("batch", lambda: Engine().run(spec, trace))
    assert event.maintenance_messages == batch.maintenance_messages
    assert event.ledger == batch.ledger
    assert event.final_answer == batch.final_answer


def test_multiquery_batched_identical(trace):
    specs = {
        "range": QuerySpec("zt-nrp", RangeQuery(400.0, 600.0)),
        "knn": QuerySpec("zt-rp", KnnQuery(q=500.0, k=5)),
    }
    event = run_forced("event", lambda: Engine().run_queries(specs, trace))
    batch = run_forced("batch", lambda: Engine().run_queries(specs, trace))
    assert event.ledger == batch.ledger
    assert event.extras["shared_updates"] == batch.extras["shared_updates"]
    assert (
        event.extras["logical_deliveries"] == batch.extras["logical_deliveries"]
    )
    assert event.answers == batch.answers


def test_checked_runs_identical_across_requested_modes(trace):
    """Checking forces the event path, so modes must agree trivially."""
    results = [
        run_forced(
            mode,
            lambda: Engine().run_protocol(
                trace,
                ZeroToleranceRangeProtocol(RangeQuery(400.0, 600.0)),
                deployment=Deployment.single(check_every=1, strict=True),
            ),
        )
        for mode in ("auto", "event", "batch")
    ]
    assert results[0].ledger == results[1].ledger == results[2].ledger


def test_invalid_mode_rejected(trace):
    session = ExecutionSession.for_streams(
        trace, NoFilterProtocol(RangeQuery(0.0, 1.0))
    )
    with pytest.raises(ValueError):
        session.replay(
            trace.times, trace.stream_ids, trace.values, mode="warp"
        )


def test_probe_mid_batch_sees_staged_value():
    """Deferred quiescent writes must be flushed before any read.

    Stream 1 drifts quiescently (inside its filter) while stream 0's
    crossing makes the protocol probe stream 1: the probe must observe
    stream 1's *latest* value even though its records were batched.
    """
    from repro.protocols.base import FilterProtocol

    class ProbeOnUpdate(FilterProtocol):
        name = "probe-on-update"

        def __init__(self):
            self.seen = []

        def initialize(self, server):
            server.deploy(0, 0.0, 10.0, assumed_inside=None)
            server.deploy(1, -1000.0, 1000.0, assumed_inside=None)

        def on_update(self, server, stream_id, value, time):
            self.seen.append(server.probe(1))

        @property
        def answer(self):
            return frozenset()

    trace = StreamTrace(
        initial_values=np.array([5.0, 0.0]),
        times=np.array([1.0, 2.0, 3.0]),
        stream_ids=np.array([1, 1, 0]),
        values=np.array([7.0, 9.0, 50.0]),  # stream 0 crosses at t=3
        horizon=4.0,
    )
    protocol = ProbeOnUpdate()
    session = ExecutionSession.for_streams(trace, protocol)
    session.initialize()
    session.replay_trace(trace, mode="batch")
    assert protocol.seen == [9.0]


def test_session_initialize_phases(trace):
    session = ExecutionSession.for_streams(
        trace, ZeroToleranceRangeProtocol(RangeQuery(400.0, 600.0))
    )
    session.initialize()
    snapshot = session.snapshot()
    assert snapshot.initialization_total > 0
    assert snapshot.maintenance_total == 0


def test_empty_trace_batched(trace):
    empty = head(trace, 0.0)
    result = run_forced(
        "batch",
        lambda: Engine().run_protocol(
            empty, ZeroToleranceRangeProtocol(RangeQuery(400.0, 600.0))
        ),
    )
    assert result.maintenance_messages == 0


def test_a_replay_leaves_the_gate_open(trace):
    """A batched replay leaves the channel's handlers as it found them:
    the population still takes a whole batch at the gate afterwards."""
    session = ExecutionSession.for_streams(
        trace, ZeroToleranceRangeProtocol(RangeQuery(400.0, 600.0))
    )
    session.initialize()
    ids = np.arange(trace.n_streams)
    population = session.channel.bulk_target(ids)
    assert population is not None
    session.replay_trace(trace, mode="batch")
    assert session.channel.bulk_target(ids) is population
