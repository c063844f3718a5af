"""The multi-query stack is hosted: ``Engine.run_queries`` runs one query
group through the engine's one executor, and every message of it —
shared updates, per-query probes and constraints — crosses the
session's channel, which charges it and may delay it."""

import gc

import numpy as np
import pytest

from repro.api import Deployment, Engine, QuerySpec, Workload
from repro.correctness import checker as checker_module
from repro.multiquery import QueryGroup
from repro.multiquery.source import SharedUpdateMessage
from repro.network.latency import FixedLatency
from repro.protocols.zt_nrp import ZeroToleranceRangeProtocol
from repro.queries.knn import KnnQuery
from repro.queries.range_query import RangeQuery
from repro.runtime.session import ExecutionSession
from repro.state import runs
from repro.streams.synthetic import SyntheticConfig, generate_synthetic_trace
from repro.streams.trace import StreamTrace
from repro.tolerance.fraction_tolerance import FractionTolerance
from repro.tolerance.rank_tolerance import RankTolerance
from control_forcing import run_per_message

#: The mixed cell: a range query and a k-NN query whose filters never
#: flip on the same record (sharing factor 1.0 synchronously).
TRACE = generate_synthetic_trace(
    SyntheticConfig(n_streams=400, horizon=400.0, seed=3)
)
WORKLOAD = Workload.from_trace(TRACE)
MIXED = {
    "warn": QuerySpec(
        "ft-nrp", RangeQuery(600.0, 1000.0), FractionTolerance(0.2, 0.2)
    ),
    "hot": QuerySpec("rtp", KnnQuery(500.0, 3), RankTolerance(3, 2)),
}


def test_the_mixed_cell_shares_no_report():
    report = Engine().run_queries(MIXED, WORKLOAD, Deployment.single(check_every=1))
    assert report.extras["sharing_factor"] == 1.0
    assert report.checks == TRACE.n_records + 1 and report.tolerance_ok
    assert report.ledger.maintenance_total == 601 + 2 * 392 + 31_612


def _violations(lines, query_id):
    """``(time, reason)`` of the report lines tagged *query_id*, the
    latency classification suffix dropped."""
    marker = f" [{query_id}]: "
    pairs = []
    for line in lines:
        if marker in line:
            time, reason = line.split(marker)
            pairs.append((float(time[2:]), reason.rsplit(" [", 1)[0]))
    return pairs


@pytest.mark.parametrize("delay", [0.5, 4.0])
def test_fixed_latency_leaves_each_query_its_solo_run(delay):
    """Under a fixed delay each query of the group ends with the answer
    and the violation sequence of its own solo run under that model:
    its messages are delivered at the same instants, in the same order.
    Classification is not compared — the staleness window spans every
    query's messages in flight."""
    deployment = Deployment.single(
        check_every=1, latency=FixedLatency.symmetric(delay)
    )
    shared = Engine().run_queries(MIXED, WORKLOAD, deployment)
    assert shared.topology == "single+latency"
    assert shared.extras["replay"]["mode"] == "event"
    total = 0
    for query_id, spec in MIXED.items():
        solo = Engine().run(spec, WORKLOAD, deployment)
        assert shared.answers[query_id] == solo.final_answer, query_id
        assert _violations(shared.violations, query_id) == [
            (violation.time, violation.reason)
            for violation in solo.checker.violations
        ], query_id
        total += solo.checker.violation_count
    assert shared.checker.violation_count == total > 0


@pytest.mark.parametrize("cell", ["mixed", "shared"])
def test_a_batch_charged_at_once_leaves_the_per_message_outcome(cell):
    """``QueryContext.probe_all`` probes the population as columns and
    ``deploy_many`` charges its batch at once; declining the channel's
    gate (``control_forcing``) keeps every probe and constraint a
    message.  Both leave one ledger, one answer per query and the same
    table columns."""
    specs = MIXED if cell == "mixed" else {
        f"user{i}": QuerySpec(
            "ft-nrp", RangeQuery(400.0, 600.0), FractionTolerance(eps, eps)
        )
        for i, eps in enumerate((0.1, 0.2, 0.4))
    }

    def run():
        group = QueryGroup(
            {
                query_id: (spec.build(), spec.query, spec.tolerance)
                for query_id, spec in specs.items()
            }
        )
        session = ExecutionSession.assemble("streams", TRACE, group)
        session.initialize()
        session.replay_trace(TRACE)
        columns = [
            getattr(table, name).copy()
            for table in session.host.state_tables
            for name in ("values", "report_time", "known", "inside", "lower")
        ]
        answers = {
            query_id: protocol.answer
            for query_id, (protocol, _, _) in group.queries.items()
        }
        return session.snapshot(), answers, columns

    columnar, per_message = run(), run_per_message(run)
    assert columnar[:2] == per_message[:2]
    for mine, theirs in zip(columnar[2], per_message[2]):
        assert np.array_equal(mine, theirs)


def test_an_inverted_bound_raises_before_anything_is_charged():
    """A query's charged batch checks every bound before its ``n``
    messages are charged or a slot is written."""
    group = QueryGroup(
        {
            query_id: (spec.build(), spec.query, spec.tolerance)
            for query_id, spec in MIXED.items()
        }
    )
    session = ExecutionSession.assemble("streams", TRACE, group)
    session.initialize()
    context = session.host.contexts["warn"]
    before = session.snapshot(), context.state.lower.copy()

    class Inverted:  # what a FilterConstraint would refuse to build
        lower, upper = 1000.0, 600.0

    bound = Inverted()
    with pytest.raises(ValueError, match="invalid filter interval"):
        context.deploy_many(np.arange(TRACE.n_streams), bound)
    assert session.snapshot() == before[0]
    assert np.array_equal(context.state.lower, before[1])


def _one_stream_trace():
    return StreamTrace(
        initial_values=np.array([500.0, 500.0]),
        times=np.array([1.0]),
        stream_ids=np.array([0]),
        values=np.array([100.0]),
        horizon=2.0,
    )


def test_an_update_tagged_with_an_unknown_query_raises():
    """A tag naming no query of the group raises: skipped, it would
    leave that query's run silently different."""
    query = RangeQuery(0.0, 1.0)
    group = QueryGroup({"a": (ZeroToleranceRangeProtocol(query), query, None)})
    session = ExecutionSession.assemble("streams", _one_stream_trace(), group)
    session.initialize()
    with pytest.raises(ValueError, match="'ghost'"):
        session.channel.send_to_server(
            SharedUpdateMessage(0, 1.0, 100.0, ("a", "ghost"))
        )


def test_the_predecessor_index_is_built_once_per_checked_run(monkeypatch):
    """Three membership queries bind the same records: one index, built
    for the run — never the trace's cached one."""
    builds = []

    def counted(stream_ids):
        builds.append(len(stream_ids))
        return runs.previous_in_stream(stream_ids)

    monkeypatch.setattr(
        "repro.multiquery.group.previous_in_stream", counted
    )
    monkeypatch.setattr(checker_module, "previous_in_stream", counted)
    trace = generate_synthetic_trace(
        SyntheticConfig(n_streams=60, horizon=60.0, seed=2)
    )
    specs = {
        f"q{i}": QuerySpec("zt-nrp", RangeQuery(low, low + 200.0))
        for i, low in enumerate((300.0, 400.0, 500.0))
    }
    report = Engine().run_queries(
        specs, Workload.from_trace(trace), Deployment.single(check_every=1)
    )
    assert report.tolerance_ok and report.checks == trace.n_records + 1
    assert builds == [trace.n_records]
    assert "previous_record" not in vars(trace)


def test_sharded_and_durable_stay_refused_without_a_bypass(tmp_path):
    from repro.durability import DurabilityPolicy

    specs = {"a": MIXED["warn"]}
    for deployment in (
        Deployment.sharded(2),
        Deployment.single(durable=DurabilityPolicy(run_dir=str(tmp_path))),
    ):
        with pytest.raises(ValueError, match="multi-query") as refused:
            Engine().run_queries(specs, WORKLOAD, deployment)
        assert "bypass" not in str(refused.value)
    # A pre-built group through the escape hatch meets the same rows.
    query = RangeQuery(0.0, 1.0)
    group = QueryGroup({"a": (ZeroToleranceRangeProtocol(query), query, None)})
    with pytest.raises(ValueError, match="supports only Deployment.single"):
        Engine().run_protocol(TRACE, group, deployment=Deployment.sharded(2))


def test_a_finished_group_leaves_no_cycle_to_the_collector():
    """``ExecutionSession.close`` unwires the coordinator too."""
    workload = Workload.synthetic(n_streams=200, horizon=20.0, seed=2)
    workload.materialize()
    gc.collect()
    gc.disable()
    try:
        Engine().run_queries(MIXED, workload, Deployment.single(check_every=3))
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        left = {
            type(found).__name__
            for found in gc.garbage
            if type(found).__module__.startswith("repro.")
        }
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
        gc.collect()
    assert left == set()
