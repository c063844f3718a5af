"""The shard transport's contract: process-parallel coupled serving.

``Deployment.sharded(n, parallel=True)`` compiles coupled scalar
protocols onto worker processes behind the epoch-stepped coordinator
(``repro/server/transport.py``).  The contract is byte-identity: the
coordinator's message ledger — and the final answer — must equal
sequential sharded serving across the full grid of {sequential,
parallel} x {2, 4} shards x {event, batch} replay x {synchronous,
latency=0} channels, for every coupled scalar protocol.  (Nonzero
latency models ride the in-flight plane and get their own grid in
``test_transport_latency.py``.)

Alongside the grid: worker-crash behaviour (a clean raised error, no
hang, no partially-merged ledger), the merged replay diagnostics, and
the ``is_zero`` latency classification the zero/nonzero routing rests
on.
"""

import time

import pytest

from repro.api import Deployment, Engine, QuerySpec, Workload
from repro.queries.knn import KnnQuery, TopKQuery
from repro.queries.range_query import RangeQuery
from repro.tolerance.fraction_tolerance import FractionTolerance
from repro.tolerance.rank_tolerance import RankTolerance

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
    sequential = engine.run(
        spec,
        WORKLOAD,
        Deployment.sharded(n_shards, replay_mode=mode, latency=latency),
    )
    parallel = engine.run(
        spec,
        WORKLOAD,
        Deployment.sharded(
            n_shards, parallel=True, replay_mode=mode, latency=latency
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


def test_checking_runs_route_through_the_transport():
    # Regression for the PR-7 limitation: check_every > 0 used to fall
    # back to the sequential coordinator.  It now runs coordinator-side
    # oracle probes at epoch boundaries on the transport itself — the
    # merged stats carry the transport counters (no fallback) and the
    # checks, violations, and ledger all match the single server.
    engine = Engine()
    spec = COUPLED_SPECS["rtp"]
    single = engine.run(spec, WORKLOAD, Deployment.single(check_every=5))
    checked = engine.run(
        spec, WORKLOAD, Deployment.sharded(2, parallel=True, check_every=5)
    )
    assert "transport" in checked.extras["replay"], "fallback is gone"
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


# ----------------------------------------------------------------------
# Latency classification (routes zero-delay past the in-flight plane)
# ----------------------------------------------------------------------
def test_latency_models_classify_zero_delay():
    from repro.network.latency import (
        ExponentialLatency,
        FixedLatency,
        UniformLatency,
        as_latency_model,
    )

    assert FixedLatency(0.0).is_zero
    assert as_latency_model(0).is_zero
    assert not FixedLatency(0.5).is_zero
    assert UniformLatency(0.0, 0.0).is_zero
    assert not UniformLatency(0.0, 0.2).is_zero
    assert ExponentialLatency(0.0, 0.0).is_zero
    assert not ExponentialLatency(0.1, 0.0).is_zero


def test_nonzero_latency_is_accepted_and_steps_the_plane():
    # Regression: nonzero models used to be rejected up front with a
    # "zero-delay channels" ValueError.  They now construct, replay,
    # and account their deferred deliveries on the in-flight plane.
    from repro.server.transport import TransportShardedServer

    trace = WORKLOAD.materialize()
    protocol = COUPLED_SPECS["rtp"].build()
    server = TransportShardedServer(trace, protocol, 2, latency=0.5)
    with server:
        server.initialize(0.0)
        server.replay(horizon=trace.horizon)
        stats = server.transport_stats()
    assert stats["in_flight_deliveries"] > 0


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
