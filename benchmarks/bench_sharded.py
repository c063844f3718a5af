"""Sharded-deployment replay throughput at n = 10,000 streams.

Four measurements; the first three over one lively ZT-NRP workload
(range [400, 600], sigma = 150 — dispatch-heavy, the regime where
replay work scales with traffic rather than vanishing into the
quiescence pre-scan):

* **single** — the baseline one-server replay (records/s).
* **sharded end-to-end** — ``Deployment.sharded(n, parallel=True)``
  through the engine: correctness (ledger byte-equality vs single) and
  the wall-clock on *this* machine's cores.
* **per-shard-server capacity** — each shard's replay timed in
  isolation; deployment throughput = total records / slowest shard.
  This is the production scale-out metric: shard servers are separate
  machines (or cores), so the deployment sustains the full record
  stream at the pace of its slowest shard.  On a single-core CI box the
  end-to-end pool wall-clock cannot beat the baseline (nothing can —
  there is one core), while the per-shard capacity measures exactly
  what the topology buys; with one core per shard the end-to-end
  wall-clock converges to it.

The fourth is the *coupled*-protocol curve: RTP (and ZT-RP at 4
shards) on the process-parallel shard transport
(``repro/server/transport.py``) vs sequential sharded serving, 1/2/4
shards.  Ledgers must be byte-identical; throughput uses the capacity
model adapted to the epoch-stepped coordinator — modeled parallel wall
= (coordinator wall - time blocked waiting on worker replies) + the
slowest worker's busy time.  On a single-core box the raw wall-clock
cannot beat sequential (there is one core and the coordinator is
serialized on it), while the modeled wall charges exactly the
single-machine work that cannot overlap: coordinator compute plus the
critical-path worker.

The fifth is the same curve for the *spatial* transport
(``SpatialTransportShardedServer``): ZT-RP-2d on the n=10k
moving-objects workload at 1/2/4 shards plus FT-RP-2d (tight 0.05
fraction tolerance) at 4 — the probe-heavy regimes where per-worker
point-probe batches and geometric pre-scans dominate replay.

Asserts >= 1.5x per-shard-server capacity at 4 shards (measured ~4x:
splitting a 10k-stream session also shrinks per-shard assembly and
pre-scan state, so capacity scales slightly super-linearly), >= 1.5x
(local; >= 1.3x under ``BENCH_SMOKE``) transport-parallel replay
throughput at 4 shards for ZT-RP-2d and FT-RP-2d on the spatial
vocabulary, and ledger byte-equality for every variant.  The scalar
transport curve (RTP, ZT-RP) is printed and recorded without a floor:
the one it had measured the per-message constraint loop the columnar
control plane removed from both sides (PR 12).  Also reports the sequential sharded
*coordinator* overhead on the rank-heavy RTP path (per-shard RankViews
+ k-way merge vs one global RankView) — tracked in the artifact, not
asserted.

Set ``BENCH_OUTPUT_DIR`` to write ``BENCH_sharded.json`` (uploaded by
the CI bench-smoke job); ``BENCH_SMOKE=1`` shrinks horizons for CI.
"""

from __future__ import annotations

from bench_artifacts import SMOKE, best_of, write_artifact

from repro.api import Deployment, Engine, QuerySpec, Workload
# This bench deliberately times the engine's own shard-replay worker in
# isolation (the per-shard-server capacity model), so it reaches into
# the private helpers instead of the public facade.
from repro.api.engine import _restrict_to_shard, _shard_replay_worker
from repro.queries.knn import KnnQuery, TopKQuery
from repro.queries.range_query import RangeQuery
from repro.state.sharding import shard_ranges
from repro.tolerance.rank_tolerance import RankTolerance

N_STREAMS = 10_000
SIGMA = 150.0
HORIZON = 60.0 if SMOKE else 150.0
RTP_HORIZON = 15.0 if SMOKE else 40.0
ZTRP_HORIZON = 5.0 if SMOKE else 10.0
SPATIAL_HORIZON = 4.0 if SMOKE else 10.0
SHARD_COUNTS = (1, 2, 4)
REPEATS = 1 if SMOKE else 3
MIN_SPEEDUP_AT_4 = 1.5
MIN_TRANSPORT_SPEEDUP_AT_4 = 1.3 if SMOKE else 1.5

_RESULTS: dict = {
    "n_streams": N_STREAMS,
    "sigma": SIGMA,
    "horizon": HORIZON,
    "shards": {},
    "rtp_coordinator": {},
    "transport": {},
    "spatial_transport": {},
}


def _workload() -> Workload:
    return Workload.synthetic(
        n_streams=N_STREAMS, horizon=HORIZON, sigma=SIGMA, seed=0
    )


def _spec() -> QuerySpec:
    return QuerySpec(protocol="zt-nrp", query=RangeQuery(400.0, 600.0))


def _best_of(fn):
    # Best-of-2 even in smoke mode: one sample of a ~13 ms shard replay
    # is a gen-2 GC pause away from any floor.
    return best_of(fn, max(REPEATS, 2))


def test_bench_sharded_replay_throughput():
    workload = _workload()
    trace = workload.materialize()
    engine = Engine()
    spec = _spec()
    print()
    print(
        f"sharded replay: {trace.n_streams} streams, {trace.n_records} "
        f"records, sigma={SIGMA:g} (dispatch-heavy), ZT-NRP [400, 600]"
    )

    single, t_single = _best_of(
        lambda: engine.run(spec, workload, Deployment.single())
    )
    base_throughput = trace.n_records / t_single
    print(
        f"{'topology':>22} {'wall':>8} {'capacity':>12} {'speedup':>8} "
        f"{'ledger':>8}"
    )
    print(
        f"{'single':>22} {t_single:>7.3f}s {base_throughput / 1e3:>10.0f}k/s "
        f"{'1.00x':>8} {'base':>8}"
    )
    _RESULTS["shards"]["1"] = {
        "wall_seconds": t_single,
        "capacity_records_per_s": base_throughput,
    }

    speedups = {}
    for n_shards in SHARD_COUNTS[1:]:
        deployment = Deployment.sharded(n_shards, parallel=True)
        fanned, t_fanned = _best_of(
            lambda d=deployment: engine.run(spec, workload, d)
        )
        assert fanned.ledger == single.ledger, (
            f"sharded({n_shards}) ledger diverged from single-server"
        )
        assert fanned.final_answer == single.final_answer

        # Per-shard-server capacity: time each shard replay in
        # isolation; the deployment drains the stream at the pace of
        # its slowest shard server.
        shard_walls = []
        for lo, hi in shard_ranges(trace.n_streams, n_shards):
            job = (
                _restrict_to_shard(trace, lo, hi),
                spec.build(),
                lo,
                None,
            )
            _, t_shard = _best_of(lambda j=job: _shard_replay_worker(j))
            shard_walls.append(t_shard)
        capacity = trace.n_records / max(shard_walls)
        speedup = capacity / base_throughput
        speedups[n_shards] = speedup
        print(
            f"{f'sharded({n_shards}) parallel':>22} {t_fanned:>7.3f}s "
            f"{capacity / 1e3:>10.0f}k/s {speedup:>7.2f}x "
            f"{'equal':>8}"
        )
        _RESULTS["shards"][str(n_shards)] = {
            "end_to_end_wall_seconds": t_fanned,
            "max_shard_wall_seconds": max(shard_walls),
            "capacity_records_per_s": capacity,
            "speedup_vs_single": speedup,
        }

    print(
        f"\nper-shard-server capacity at 4 shards: "
        f"{speedups[4]:.2f}x single (floor {MIN_SPEEDUP_AT_4}x)"
    )
    assert speedups[4] >= MIN_SPEEDUP_AT_4, (
        f"sharded(4) capacity speedup {speedups[4]:.2f}x "
        f"< {MIN_SPEEDUP_AT_4}x"
    )
    write_artifact("sharded", _RESULTS)


def test_bench_sharded_rank_coordinator_overhead():
    """RTP on the sequential sharded coordinator vs one server.

    The coordinator serves every rank read through per-shard RankViews
    plus the k-way heap merge; this tracks its overhead (no assertion —
    the contract is ledger equality, asserted here, and the overhead is
    artifact data for the perf trajectory).
    """
    workload = Workload.synthetic(
        n_streams=N_STREAMS, horizon=RTP_HORIZON, seed=0
    )
    trace = workload.materialize()
    engine = Engine()
    spec = QuerySpec(
        protocol="rtp",
        query=TopKQuery(k=10),
        tolerance=RankTolerance(k=10, r=5),
    )
    single, t_single = _best_of(
        lambda: engine.run(spec, workload, Deployment.single())
    )
    sharded, t_sharded = _best_of(
        lambda: engine.run(spec, workload, Deployment.sharded(4))
    )
    assert sharded.ledger == single.ledger
    overhead = t_sharded / t_single
    print()
    print(
        f"RTP n={N_STREAMS}: single {t_single:.2f}s, sharded(4) "
        f"coordinator {t_sharded:.2f}s ({overhead:.2f}x), "
        f"{single.maintenance_messages} messages, ledgers equal"
    )
    _RESULTS["rtp_coordinator"] = {
        "single_wall_seconds": t_single,
        "sharded4_wall_seconds": t_sharded,
        "overhead": overhead,
        "maintenance_messages": single.maintenance_messages,
    }
    write_artifact("sharded", _RESULTS)


def _sequential_replay_wall(trace, protocol, n_shards: int) -> tuple:
    """Sequential sharded serving, replay phase timed on its own."""
    import time as _time

    from repro.runtime.session import ExecutionSession

    if n_shards == 1:
        session = ExecutionSession.for_streams(trace, protocol)
    else:
        session = ExecutionSession.for_streams_sharded(
            trace, protocol, n_shards
        )
    session.initialize(time=0.0)
    started = _time.perf_counter()
    session.replay_trace(trace)
    return _time.perf_counter() - started, session.snapshot()


def _sequential_spatial_replay_wall(trace, protocol, n_shards: int) -> tuple:
    """Sequential sharded *spatial* serving, replay phase timed alone."""
    import time as _time

    from repro.runtime.session import ExecutionSession

    if n_shards == 1:
        session = ExecutionSession.for_spatial(trace, protocol)
    else:
        session = ExecutionSession.for_spatial_sharded(
            trace, protocol, n_shards
        )
    session.initialize(time=0.0)
    started = _time.perf_counter()
    session.replay_trace(trace)
    return _time.perf_counter() - started, session.snapshot()


def _transport_replay_wall(trace, protocol, n_shards: int, server_cls=None) -> tuple:
    """Transport-parallel replay: modeled wall + diagnostics.

    Modeled wall = (coordinator wall - reply-wait) + slowest worker's
    busy time: the coordinator's own compute is serialized with the
    critical-path worker, everything else overlaps across machines.
    """
    import time as _time

    from repro.server.transport import TransportShardedServer

    if server_cls is None:
        server_cls = TransportShardedServer
    server = server_cls(trace, protocol, n_shards)
    with server:
        server.initialize(0.0)
        wait_before = server.bus.stats.recv_wait_seconds
        started = _time.perf_counter()
        server.replay(horizon=trace.horizon)
        wall = _time.perf_counter() - started
        wait = server.bus.stats.recv_wait_seconds - wait_before
        stats = server.transport_stats()
    coordinator = wall - wait
    modeled = coordinator + max(stats["worker_busy_seconds"])
    return modeled, server.snapshot(), {
        "wall_seconds": wall,
        "coordinator_wall_seconds": coordinator,
        "max_worker_busy_seconds": max(stats["worker_busy_seconds"]),
        "recv_wait_seconds": wait,
        "epochs": stats["epochs"],
        "rpc_posts": stats["posts"],
        "bytes_out": stats["bytes_out"],
        "bytes_in": stats["bytes_in"],
    }


def _transport_point(
    spec, trace, n_shards: int, sequential_wall=None, server_cls=None
) -> dict:
    """One curve point: best-of sequential vs best-of transport."""
    if sequential_wall is None:
        sequential_wall = _sequential_replay_wall
    # Even in smoke mode take best-of-2: a single fork-and-replay
    # sample is too noisy to assert a floor against.
    reps = max(REPEATS, 2)
    t_seq = min(
        sequential_wall(trace, spec.build(), n_shards)[0]
        for _ in range(reps)
    )
    _, seq_ledger = sequential_wall(trace, spec.build(), n_shards)
    best = None
    for _ in range(reps):
        modeled, ledger, diag = _transport_replay_wall(
            trace, spec.build(), n_shards, server_cls=server_cls
        )
        assert ledger == seq_ledger, (
            f"transport({n_shards}) ledger diverged from sequential "
            f"sharded serving"
        )
        if best is None or modeled < best[0]:
            best = (modeled, diag)
    modeled, diag = best
    point = {
        "sequential_replay_wall_seconds": t_seq,
        "modeled_parallel_wall_seconds": modeled,
        "speedup_vs_sequential": t_seq / modeled,
        "coordination_fraction": (
            diag["coordinator_wall_seconds"] / modeled
        ),
        **diag,
    }
    return point


def test_bench_transport_coupled_throughput():
    """Coupled protocols across worker processes: the tentpole curve.

    RTP at 1/2/4 shards (sequential sharded serving vs the process
    transport, replay phase, ledgers byte-identical), plus ZT-RP at 4
    shards — the probe-storm regime, every crossing probing the full
    population through batched per-worker RPCs.
    """
    workload = Workload.synthetic(
        n_streams=N_STREAMS, horizon=RTP_HORIZON, seed=0
    )
    trace = workload.materialize()
    spec = QuerySpec(
        protocol="rtp",
        query=TopKQuery(k=10),
        tolerance=RankTolerance(k=10, r=5),
    )
    print()
    print(
        f"transport-parallel coupled replay: {trace.n_streams} streams, "
        f"{trace.n_records} records, RTP top-10"
    )
    print(
        f"{'shards':>8} {'seq':>8} {'modeled':>8} {'coord%':>7} "
        f"{'speedup':>8} {'ledger':>7}"
    )
    _RESULTS["transport"] = {
        "protocol": "rtp",
        "horizon": RTP_HORIZON,
        "n_records": trace.n_records,
        "shards": {},
    }
    for n_shards in SHARD_COUNTS:
        point = _transport_point(spec, trace, n_shards)
        _RESULTS["transport"]["shards"][str(n_shards)] = point
        print(
            f"{n_shards:>8} {point['sequential_replay_wall_seconds']:>7.3f}s"
            f" {point['modeled_parallel_wall_seconds']:>7.3f}s"
            f" {point['coordination_fraction'] * 100:>6.1f}%"
            f" {point['speedup_vs_sequential']:>7.2f}x {'equal':>7}"
        )

    ztrp_workload = Workload.synthetic(
        n_streams=N_STREAMS, horizon=ZTRP_HORIZON, seed=0
    )
    ztrp_trace = ztrp_workload.materialize()
    ztrp_spec = QuerySpec(protocol="zt-rp", query=KnnQuery(q=500.0, k=10))
    ztrp_point = _transport_point(ztrp_spec, ztrp_trace, 4)
    _RESULTS["transport"]["zt_rp_4"] = {
        "horizon": ZTRP_HORIZON,
        "n_records": ztrp_trace.n_records,
        **ztrp_point,
    }
    print(
        f"zt-rp(4): seq "
        f"{ztrp_point['sequential_replay_wall_seconds']:.3f}s, modeled "
        f"{ztrp_point['modeled_parallel_wall_seconds']:.3f}s, "
        f"{ztrp_point['speedup_vs_sequential']:.2f}x, ledgers equal"
    )

    # No speedup floor on the scalar vocabulary: the curve is printed
    # and recorded, the contract asserted here is ledger equality.  The
    # floor this test used to assert measured the per-message constraint
    # loop spread over workers; the columnar control plane (PR 12) took
    # that loop out of the sequential coordinator too, and the modeled
    # transport wall has read 0.8-1.1x sequential at 4 shards since.
    write_artifact("sharded", _RESULTS)


def test_bench_spatial_transport_coupled_throughput():
    """Coupled *spatial* protocols across worker processes.

    ZT-RP-2d on the n=10k moving-objects workload at 1/2/4 shards —
    every kNN threshold crossing probes the full point population, so
    the per-worker probe batches and geometric pre-scans are the bulk
    of the replay and parallelize across shards — plus FT-RP-2d under a
    tight fraction tolerance (0.05) at 4 shards, the second coupled
    ``-2d`` protocol on the transport.  Ledgers must be byte-identical
    to sequential sharded spatial serving; the modeled-wall speedup at
    4 shards is floor-asserted for both.
    """
    from repro.server.transport import SpatialTransportShardedServer
    from repro.spatial.queries import SpatialKnnQuery
    from repro.tolerance.fraction_tolerance import FractionTolerance

    workload = Workload.moving_objects(
        n_objects=N_STREAMS, horizon=SPATIAL_HORIZON, seed=0
    )
    trace = workload.materialize()
    spec = QuerySpec(
        protocol="zt-rp-2d", query=SpatialKnnQuery((500.0, 500.0), 10)
    )
    print()
    print(
        f"spatial transport-parallel coupled replay: "
        f"{trace.n_streams} objects, {trace.n_records} records, "
        f"ZT-RP-2d 10-NN"
    )
    print(
        f"{'shards':>8} {'seq':>8} {'modeled':>8} {'coord%':>7} "
        f"{'speedup':>8} {'ledger':>7}"
    )
    _RESULTS["spatial_transport"] = {
        "protocol": "zt-rp-2d",
        "horizon": SPATIAL_HORIZON,
        "n_records": trace.n_records,
        "min_speedup_at_4": MIN_TRANSPORT_SPEEDUP_AT_4,
        "shards": {},
    }
    for n_shards in SHARD_COUNTS:
        point = _transport_point(
            spec,
            trace,
            n_shards,
            sequential_wall=_sequential_spatial_replay_wall,
            server_cls=SpatialTransportShardedServer,
        )
        _RESULTS["spatial_transport"]["shards"][str(n_shards)] = point
        print(
            f"{n_shards:>8} {point['sequential_replay_wall_seconds']:>7.3f}s"
            f" {point['modeled_parallel_wall_seconds']:>7.3f}s"
            f" {point['coordination_fraction'] * 100:>6.1f}%"
            f" {point['speedup_vs_sequential']:>7.2f}x {'equal':>7}"
        )

    ftrp_spec = QuerySpec(
        protocol="ft-rp-2d",
        query=SpatialKnnQuery((500.0, 500.0), 10),
        tolerance=FractionTolerance(0.05, 0.05),
    )
    ftrp_point = _transport_point(
        ftrp_spec,
        trace,
        4,
        sequential_wall=_sequential_spatial_replay_wall,
        server_cls=SpatialTransportShardedServer,
    )
    _RESULTS["spatial_transport"]["ft_rp_2d_4"] = ftrp_point
    print(
        f"ft-rp-2d(4): seq "
        f"{ftrp_point['sequential_replay_wall_seconds']:.3f}s, modeled "
        f"{ftrp_point['modeled_parallel_wall_seconds']:.3f}s, "
        f"{ftrp_point['speedup_vs_sequential']:.2f}x, ledgers equal"
    )

    floor = MIN_TRANSPORT_SPEEDUP_AT_4
    ztrp_speedup = _RESULTS["spatial_transport"]["shards"]["4"][
        "speedup_vs_sequential"
    ]
    assert ztrp_speedup >= floor, (
        f"spatial transport ZT-RP-2d speedup at 4 shards "
        f"{ztrp_speedup:.2f}x < {floor}x"
    )
    assert ftrp_point["speedup_vs_sequential"] >= floor, (
        f"spatial transport FT-RP-2d speedup at 4 shards "
        f"{ftrp_point['speedup_vs_sequential']:.2f}x < {floor}x"
    )
    write_artifact("sharded", _RESULTS)
