"""Engine behaviour across stacks, topologies and schedules."""

import pytest

from repro.api import Deployment, Engine, QuerySpec, Workload, run
from repro.queries.knn import TopKQuery
from repro.queries.range_query import RangeQuery
from repro.runtime.replay import REPLAY_COUNTERS
from repro.tolerance.fraction_tolerance import FractionTolerance
from repro.tolerance.rank_tolerance import RankTolerance
from replay_forcing import run_forced

WORKLOAD = Workload.synthetic(n_streams=80, horizon=120.0, seed=3)
RANGE_SPEC = QuerySpec(protocol="zt-nrp", query=RangeQuery(400.0, 600.0))


def test_run_report_shape_and_metrics():
    report = Engine().run(RANGE_SPEC, WORKLOAD, label="demo")
    assert report.protocol == "ZT-NRP"
    assert report.stack == "streams"
    assert report.topology == "single"
    assert report.label == "demo"
    assert report.n_streams == 80
    assert report.maintenance_messages == report.ledger.maintenance_total
    assert report.wall_seconds > 0
    assert report.tolerance_ok
    assert report.row()["messages"] == report.maintenance_messages


def test_engine_accepts_bare_trace_as_workload():
    trace = WORKLOAD.materialize()
    by_value = Engine().run(RANGE_SPEC, WORKLOAD)
    by_trace = Engine().run(RANGE_SPEC, trace)
    assert by_value.ledger == by_trace.ledger


def test_module_level_run_matches_engine():
    assert (
        run(RANGE_SPEC, WORKLOAD).ledger
        == Engine().run(RANGE_SPEC, WORKLOAD).ledger
    )


def test_default_deployment_is_engine_level():
    engine = Engine(Deployment.sharded(2))
    assert engine.run(RANGE_SPEC, WORKLOAD).topology == "sharded(2)"
    # Per-run override wins.
    assert (
        engine.run(RANGE_SPEC, WORKLOAD, Deployment.single()).topology
        == "single"
    )


def test_checking_populates_checks_and_violations():
    spec = QuerySpec(
        protocol="ft-nrp",
        query=RangeQuery(400.0, 600.0),
        tolerance=FractionTolerance(0.2, 0.2),
    )
    report = Engine().run(spec, WORKLOAD, Deployment.single(check_every=1))
    assert report.checks > 0
    assert report.tolerance_ok
    assert report.violations == ()


def test_checking_works_under_sharded_topology():
    spec = QuerySpec(
        protocol="rtp",
        query=TopKQuery(k=4),
        tolerance=RankTolerance(k=4, r=2),
    )
    single = Engine().run(spec, WORKLOAD, Deployment.single(check_every=5))
    sharded = Engine().run(
        spec, WORKLOAD, Deployment.sharded(3, check_every=5)
    )
    assert single.checks == sharded.checks > 0
    assert single.ledger == sharded.ledger


def test_value_eps_report_carries_rank_quality():
    spec = QuerySpec(
        protocol="value-eps", query=TopKQuery(k=4), options={"eps": 25.0}
    )
    report = Engine().run(spec, WORKLOAD, Deployment.single(check_every=5))
    assert report.stack == "valuebased"
    assert report.extras["worst_rank"] >= 4
    assert report.extras["value_guarantee_held"] is True


def test_spatial_spec_runs_under_both_topologies():
    from repro.spatial.queries import SpatialKnnQuery

    spec = QuerySpec(
        protocol="rtp-2d",
        query=SpatialKnnQuery(q=(500.0, 500.0), k=3),
        tolerance=RankTolerance(k=3, r=2),
    )
    workload = Workload.moving_objects(n_objects=30, horizon=50.0, seed=2)
    report = Engine().run(spec, workload)
    assert report.stack == "spatial"
    assert report.maintenance_messages > 0
    sharded = Engine().run(spec, workload, Deployment.sharded(2))
    assert sharded.topology == "sharded(2)"
    assert sharded.ledger == report.ledger
    assert sharded.final_answer == report.final_answer


def test_spatial_parallel_runs_on_the_transport():
    """``sharded(n, parallel=True)`` serves spatial protocols now."""
    from repro.spatial.queries import SpatialKnnQuery

    spec = QuerySpec(
        protocol="rtp-2d",
        query=SpatialKnnQuery(q=(500.0, 500.0), k=3),
        tolerance=RankTolerance(k=3, r=2),
    )
    workload = Workload.moving_objects(n_objects=30, horizon=50.0, seed=2)
    sequential = Engine().run(spec, workload, Deployment.sharded(2))
    parallel = Engine().run(
        spec, workload, Deployment.sharded(2, parallel=True)
    )
    assert parallel.ledger == sequential.ledger
    assert parallel.final_answer == sequential.final_answer
    assert "transport" in parallel.extras["replay"]
    # Under a latency model the same call is the sequential session
    # (no process, no transport counters), ledger identical a fortiori.
    delayed_seq = Engine().run(
        spec, workload, Deployment.sharded(2, latency=0.5)
    )
    delayed_par = Engine().run(
        spec, workload, Deployment.sharded(2, parallel=True, latency=0.5)
    )
    assert delayed_par.ledger == delayed_seq.ledger
    assert delayed_par.final_answer == delayed_seq.final_answer
    assert "transport" not in delayed_par.extras["replay"]


def test_run_queries_shared_deployment():
    specs = {
        "warn": QuerySpec(
            protocol="ft-nrp",
            query=RangeQuery(600.0, 1000.0),
            tolerance=FractionTolerance(0.2, 0.2),
        ),
        "hot": QuerySpec(
            protocol="rtp",
            query=TopKQuery(k=3),
            tolerance=RankTolerance(k=3, r=2),
        ),
    }
    report = Engine().run_queries(specs, WORKLOAD)
    assert report.stack == "multiquery"
    assert set(report.answers) == {"warn", "hot"}
    assert report.extras["sharing_factor"] >= 1.0
    with pytest.raises(ValueError, match="single"):
        Engine().run_queries(specs, WORKLOAD, Deployment.sharded(2))


# ----------------------------------------------------------------------
# Sharded + parallel fan-out (decomposable protocols)
# ----------------------------------------------------------------------
def test_report_extras_carry_replay_diagnostics():
    """Every batched run reports which kernel ran and what it counted."""
    report = Engine().run(RANGE_SPEC, WORKLOAD, Deployment.single())
    stats = report.extras["replay"]
    assert stats["mode"] == "batch"
    assert stats["kernel"] in ("columnar", "run")
    assert stats["records"] == report.n_records
    # The bailout counters the dispatch benchmark reads.
    for key in REPLAY_COUNTERS:
        assert stats[key] >= 0
    assert "dispatch_bailout_at" in stats
    event = run_forced("event", lambda: Engine().run(RANGE_SPEC, WORKLOAD))
    assert event.extras["replay"]["mode"] == "event"
    assert event.extras["replay"]["dispatches"] == event.n_records


def test_fanout_merges_replay_diagnostics():
    fanned = Engine().run(
        RANGE_SPEC, WORKLOAD, Deployment.sharded(3, parallel=True)
    )
    stats = fanned.extras["replay"]
    assert stats["records"] == fanned.n_records
    assert stats["kernel"] in ("columnar", "run", "mixed")


def test_fanout_matches_sequential_for_decomposable_protocol():
    sequential = Engine().run(RANGE_SPEC, WORKLOAD)
    fanned = Engine().run(
        RANGE_SPEC, WORKLOAD, Deployment.sharded(3, parallel=True)
    )
    assert fanned.ledger == sequential.ledger
    assert fanned.final_answer == sequential.final_answer


@pytest.mark.parametrize("mode", ["event", "batch"])
def test_fanout_workers_replay_the_forced_strategy(mode):
    """The pool's workers fork inside the forcing patch: each replays
    the forced strategy, and the merged ledger stays the sequential one."""
    sequential = Engine().run(RANGE_SPEC, WORKLOAD)
    fanned = run_forced(
        mode,
        lambda: Engine().run(
            RANGE_SPEC, WORKLOAD, Deployment.sharded(3, parallel=True)
        ),
    )
    assert fanned.topology == "sharded(3)+fanout"
    assert fanned.extras["replay"]["workers"] == 3
    assert fanned.ledger == sequential.ledger


def test_fanout_not_used_for_coupled_protocols():
    # RTP ranks globally: parallel=True must fall back to the sequential
    # coordinator and still match the single server exactly.
    spec = QuerySpec(
        protocol="rtp",
        query=TopKQuery(k=4),
        tolerance=RankTolerance(k=4, r=2),
    )
    single = Engine().run(spec, WORKLOAD)
    sharded = Engine().run(
        spec, WORKLOAD, Deployment.sharded(3, parallel=True)
    )
    assert sharded.ledger == single.ledger
    assert sharded.final_answer == single.final_answer


def test_decomposability_flags():
    from repro.protocols.no_filter import NoFilterProtocol
    from repro.protocols.rtp import RankToleranceProtocol
    from repro.protocols.zt_nrp import ZeroToleranceRangeProtocol

    assert ZeroToleranceRangeProtocol(RangeQuery(0.0, 1.0)).decomposable_maintenance
    assert NoFilterProtocol(RangeQuery(0.0, 1.0)).decomposable_maintenance
    assert not NoFilterProtocol(TopKQuery(k=2)).decomposable_maintenance
    assert not RankToleranceProtocol(
        TopKQuery(k=2), RankTolerance(k=2, r=1)
    ).decomposable_maintenance
