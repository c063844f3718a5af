"""Extension bench — the protocols in two dimensions (Section 7).

The paper closes with "the concepts of our protocols can be extended to
multiple dimensions".  Three measurements over the 2-D moving-objects
workload:

* **tolerance curves** — the spatial counterparts reproduce the same
  qualitative story as Figures 9/15: tolerance collapses the
  communication cost.
* **geometric quiescence planes** — batched replay (the AABB pre-scan
  over the regions' inscribed/circumscribed bboxes) vs per-event replay
  in the filtering regime, asserting >= 1.5x and ledger byte-equality.
* **sharded spatial topology** — ledgers byte-identical across
  ``{single, sharded(2), sharded(4)} x {per-event, batched}``, with the
  sequential coordinator overhead tracked in the artifact.

Set ``BENCH_OUTPUT_DIR`` to write ``BENCH_spatial.json`` (uploaded by
the CI bench-smoke job); ``BENCH_SMOKE=1`` shrinks the grids for CI.
"""

from __future__ import annotations

from bench_artifacts import SMOKE, best_of, write_artifact
from replay_forcing import run_forced

from repro.api import Deployment, Engine, QuerySpec, Workload
from repro.harness.reporting import format_series
from repro.spatial.geometry import BoxRegion
from repro.spatial.queries import SpatialKnnQuery, SpatialRangeQuery
from repro.tolerance.fraction_tolerance import FractionTolerance
from repro.tolerance.rank_tolerance import RankTolerance

K = 10
R_VALUES = [0, 2, 8] if SMOKE else [0, 2, 4, 8]
EPS_VALUES = [0.1, 0.4] if SMOKE else [0.1, 0.2, 0.4]
CENTER = (500.0, 500.0)
QUERY_BOX = BoxRegion([300.0, 300.0], [700.0, 700.0])

# Filtering regime for the replay measurement: small steps relative to
# the query box, so the AABB pre-scan stages the bulk of the records.
N_OBJECTS = 600 if SMOKE else 2000
FILTER_HORIZON = 150.0 if SMOKE else 400.0
REPEATS = 1 if SMOKE else 3
MIN_BATCH_SPEEDUP = 1.5
SHARD_COUNTS = (1, 2, 4)

_RESULTS: dict = {
    "rtp_curve": {},
    "ftrp_curve": {},
    "batched_replay": {},
    "sharded": {},
}


def _curve_workload() -> Workload:
    return Workload.moving_objects(n_objects=200, horizon=300.0, seed=0)


def _filtering_workload() -> Workload:
    return Workload.moving_objects(
        n_objects=N_OBJECTS,
        horizon=FILTER_HORIZON,
        sigma=4.0,
        mean_interarrival=4.0,
        seed=1,
    )


def _best_of(fn):
    return best_of(fn, REPEATS)


def _forced_best_of(mode, fn):
    """:func:`_best_of` with replay forced to *mode* (the forcing patch
    stays outside the timed calls)."""
    return run_forced(mode, lambda: _best_of(fn))


def test_extension_spatial_tolerance_curves():
    engine = Engine()
    workload = _curve_workload()
    rtp_curve = []
    for r in R_VALUES:
        report = engine.run(
            QuerySpec(
                protocol="rtp-2d",
                query=SpatialKnnQuery(CENTER, K),
                tolerance=RankTolerance(k=K, r=r),
            ),
            workload,
        )
        rtp_curve.append(report.maintenance_messages)

    zt = engine.run(
        QuerySpec(protocol="zt-rp-2d", query=SpatialKnnQuery(CENTER, K)),
        workload,
    )
    ftrp_curve = [zt.maintenance_messages]
    for eps in EPS_VALUES:
        report = engine.run(
            QuerySpec(
                protocol="ft-rp-2d",
                query=SpatialKnnQuery(CENTER, K),
                tolerance=FractionTolerance(eps, eps),
            ),
            workload,
        )
        ftrp_curve.append(report.maintenance_messages)

    print()
    print(
        format_series(
            "r",
            R_VALUES,
            {"RTP-2d": rtp_curve},
            title=f"Extension — 2-D RTP over moving objects (k={K})",
        )
    )
    print(
        format_series(
            "eps",
            [0.0, *EPS_VALUES],
            {"ZT/FT-RP-2d": ftrp_curve},
            title=f"Extension — 2-D ZT-RP/FT-RP (k={K})",
        )
    )
    _RESULTS["rtp_curve"] = dict(zip(map(str, R_VALUES), rtp_curve))
    _RESULTS["ftrp_curve"] = dict(
        zip(map(str, [0.0, *EPS_VALUES]), ftrp_curve)
    )
    write_artifact("spatial", _RESULTS)
    # Same shapes as the 1-D figures: slack collapses cost.
    assert rtp_curve[-1] < rtp_curve[0]
    assert ftrp_curve[1] < ftrp_curve[0] / 2
    assert ftrp_curve[-1] < ftrp_curve[0] / 20


def test_bench_spatial_batched_replay_speedup():
    """The geometric quiescence planes' payoff in the filtering regime."""
    engine = Engine()
    workload = _filtering_workload()
    trace = workload.materialize()
    spec = QuerySpec(
        protocol="zt-nrp-2d", query=SpatialRangeQuery(QUERY_BOX)
    )
    print()
    print(
        f"spatial batched replay: {trace.n_streams} objects, "
        f"{trace.n_records} records, sigma=4 (filtering regime), "
        "ZT-NRP-2d over the query box"
    )
    event, t_event = _forced_best_of(
        "event", lambda: engine.run(spec, workload, Deployment.single())
    )
    batch, t_batch = _forced_best_of(
        "batch", lambda: engine.run(spec, workload, Deployment.single())
    )
    assert batch.ledger == event.ledger, "batched spatial ledger diverged"
    assert batch.final_answer == event.final_answer
    speedup = t_event / t_batch
    print(
        f"event {t_event * 1e3:.0f}ms, batch {t_batch * 1e3:.0f}ms "
        f"({speedup:.2f}x, floor {MIN_BATCH_SPEEDUP}x), "
        f"{event.maintenance_messages} maintenance messages, ledgers equal"
    )
    _RESULTS["batched_replay"] = {
        "n_objects": trace.n_streams,
        "n_records": trace.n_records,
        "event_ms": round(t_event * 1e3, 3),
        "batch_ms": round(t_batch * 1e3, 3),
        "speedup": round(speedup, 2),
    }
    write_artifact("spatial", _RESULTS)
    assert speedup >= MIN_BATCH_SPEEDUP, (
        f"batched spatial replay only {speedup:.2f}x faster than "
        f"per-event in the filtering regime (floor {MIN_BATCH_SPEEDUP}x)"
    )


def test_bench_sharded_spatial_ledger_grid():
    """The acceptance grid: one ledger across topologies and modes."""
    engine = Engine()
    workload = _filtering_workload()
    spec = QuerySpec(
        protocol="ft-rp-2d",
        query=SpatialKnnQuery(CENTER, K),
        tolerance=FractionTolerance(0.2, 0.2),
    )
    base, t_base = _forced_best_of(
        "event", lambda: engine.run(spec, workload, Deployment.single())
    )
    print()
    print(f"{'deployment':>14} {'mode':>6} {'wall':>9} {'ledger':>8}")
    print(f"{'single':>14} {'event':>6} {t_base * 1e3:>8.0f}ms {'base':>8}")
    for n_shards in SHARD_COUNTS:
        for mode in ("event", "batch"):
            if n_shards == 1 and mode == "event":
                continue
            deployment = (
                Deployment.single()
                if n_shards == 1
                else Deployment.sharded(n_shards)
            )
            report, wall = _forced_best_of(
                mode, lambda d=deployment: engine.run(spec, workload, d)
            )
            assert report.ledger == base.ledger, (
                f"{deployment.describe()} {mode} ledger diverged"
            )
            assert report.final_answer == base.final_answer
            print(
                f"{deployment.describe():>14} {mode:>6} "
                f"{wall * 1e3:>8.0f}ms {'equal':>8}"
            )
            _RESULTS["sharded"][f"{deployment.describe()}-{mode}"] = {
                "wall_ms": round(wall * 1e3, 3),
            }
    _RESULTS["sharded"]["single-event"] = {
        "wall_ms": round(t_base * 1e3, 3)
    }
    write_artifact("spatial", _RESULTS)
