"""The shard transport's contract: process-parallel coupled serving.

``Deployment.sharded(n, parallel=True)`` compiles coupled scalar
protocols onto worker processes behind the epoch-stepped coordinator
(``repro/server/transport.py``).  The contract is byte-identity: the
coordinator's message ledger — and the final answer — must equal
sequential sharded serving across the full grid of {sequential,
parallel} x {2, 4} shards x {event, batch} replay x {synchronous,
latency=0} channels, for every coupled scalar protocol.  (Only the
synchronous cells build processes: a latency model — ``latency=0``
included — or a checker routes ``parallel=True`` onto the sequential
session, which ``test_transport_latency.py`` pins.)

Alongside the grid: worker-crash behaviour (a clean raised error, no
hang, no partially-merged ledger) and the merged replay diagnostics.
"""

import time

import pytest

from repro.api import Deployment, Engine, QuerySpec, Workload
from repro.queries.knn import KnnQuery, TopKQuery
from repro.queries.range_query import RangeQuery
from repro.tolerance.fraction_tolerance import FractionTolerance
from repro.tolerance.rank_tolerance import RankTolerance
from replay_forcing import run_forced

WORKLOAD = Workload.synthetic(n_streams=100, horizon=30.0, seed=7)

#: The coupled scalar protocols — the ones the transport exists for.
#: (ZT-NRP is decomposable and served by the fan-out path instead.)
COUPLED_SPECS = {
    "rtp": QuerySpec(
        protocol="rtp",
        query=TopKQuery(k=5),
        tolerance=RankTolerance(k=5, r=3),
    ),
    "zt-rp": QuerySpec(protocol="zt-rp", query=KnnQuery(q=500.0, k=5)),
    "ft-rp": QuerySpec(
        protocol="ft-rp",
        query=KnnQuery(q=500.0, k=5),
        tolerance=FractionTolerance(0.2, 0.2),
    ),
    "ft-nrp": QuerySpec(
        protocol="ft-nrp",
        query=RangeQuery(400.0, 600.0),
        tolerance=FractionTolerance(0.2, 0.2),
    ),
}


# ----------------------------------------------------------------------
# The ledger-identity grid
# ----------------------------------------------------------------------
@pytest.mark.parametrize("latency", [None, 0], ids=["sync", "latency0"])
@pytest.mark.parametrize("mode", ["event", "batch"])
@pytest.mark.parametrize("n_shards", [2, 4])
@pytest.mark.parametrize("protocol", sorted(COUPLED_SPECS))
def test_transport_ledger_identical_to_sequential(
    protocol, n_shards, mode, latency
):
    engine = Engine()
    spec = COUPLED_SPECS[protocol]
    sequential = run_forced(
        mode,
        lambda: engine.run(
            spec, WORKLOAD, Deployment.sharded(n_shards, latency=latency)
        ),
    )
    parallel = run_forced(
        mode,
        lambda: engine.run(
            spec,
            WORKLOAD,
            Deployment.sharded(n_shards, parallel=True, latency=latency),
        ),
    )
    assert parallel.ledger == sequential.ledger
    assert parallel.final_answer == sequential.final_answer
    strip = lambda e: {k: v for k, v in e.items() if k != "replay"}  # noqa: E731
    assert strip(parallel.extras) == strip(sequential.extras)


def test_transport_matches_single_server_too():
    # Transitivity check pinned down explicitly: the transport equals
    # the single server, not merely the sequential sharded coordinator.
    engine = Engine()
    spec = COUPLED_SPECS["rtp"]
    single = engine.run(spec, WORKLOAD, Deployment.single())
    parallel = engine.run(
        spec, WORKLOAD, Deployment.sharded(4, parallel=True)
    )
    assert parallel.ledger == single.ledger
    assert parallel.final_answer == single.final_answer


def test_checking_runs_route_to_the_sequential_session():
    # A checker runs on the coordinator either way, so a checking run
    # takes no worker processes: it *is* the sequential sharded run —
    # no transport counters, no ``+transport`` — and its checks,
    # violations, and ledger all match the single server.
    engine = Engine()
    spec = COUPLED_SPECS["rtp"]
    single = engine.run(spec, WORKLOAD, Deployment.single(check_every=5))
    checked = engine.run(
        spec, WORKLOAD, Deployment.sharded(2, parallel=True, check_every=5)
    )
    assert "transport" not in checked.extras["replay"]
    assert checked.topology == "sharded(2)"
    assert checked.checks == single.checks > 0
    assert list(checked.violations) == list(single.violations)
    assert checked.ledger == single.ledger


# ----------------------------------------------------------------------
# Replay diagnostics merge across workers
# ----------------------------------------------------------------------
def test_merge_replay_stats_counts_workers():
    from repro.runtime.replay import merge_replay_stats

    parts = [
        {"mode": "batch", "kernel": "transport", "records": 10, "staged": 4},
        {"mode": "batch", "kernel": "transport", "records": 7, "staged": 1},
        {"mode": "batch", "kernel": "transport", "records": 3, "staged": 0},
    ]
    merged = merge_replay_stats(parts)
    assert merged["workers"] == 3
    assert merged["records"] == 20
    assert merged["staged"] == 5
    assert merged["mode"] == "batch"
    assert merged["kernel"] == "transport"


def test_transport_report_merges_worker_diagnostics():
    report = Engine().run(
        COUPLED_SPECS["zt-rp"],
        WORKLOAD,
        Deployment.sharded(4, parallel=True),
    )
    stats = report.extras["replay"]
    assert stats["workers"] == 4
    assert stats["records"] == report.n_records
    transport = stats["transport"]
    assert transport["epochs"] > 0
    assert transport["posts"] > 0
    assert transport["bytes_out"] > 0
    assert len(transport["worker_busy_seconds"]) == 4


def test_the_transport_takes_no_latency_model():
    from repro.server.transport import TransportShardedServer

    trace = WORKLOAD.materialize()
    protocol = COUPLED_SPECS["rtp"].build()
    with pytest.raises(TypeError):
        TransportShardedServer(trace, protocol, 2, latency=0.5)


# ----------------------------------------------------------------------
# Worker crash: raise cleanly, never hang, never emit a partial ledger
# ----------------------------------------------------------------------
def test_worker_crash_raises_cleanly_without_hanging():
    from repro.server.transport import TransportError, TransportShardedServer

    trace = WORKLOAD.materialize()
    protocol = COUPLED_SPECS["rtp"].build()
    server = TransportShardedServer(trace, protocol, 2)
    with server:
        server.initialize(0.0)
        workers = [server.bus.handle(index).process for index in range(2)]
        workers[1].terminate()
        workers[1].join(timeout=5.0)
        started = time.perf_counter()
        with pytest.raises(TransportError):
            server.replay(horizon=trace.horizon)
        # The failure must be detected promptly — liveness polling, not
        # the 60 s receive deadline.
        assert time.perf_counter() - started < 30.0
    # No partial ledger: the crash aborted replay before any merged
    # worker stats were recorded.
    assert server.transport_stats().get("worker_busy_seconds") is None
    # close() (via __exit__) reaped every worker.
    for process in workers:
        assert not process.is_alive()
