"""Durability-tier overhead: journal and fsync cost vs the plain run.

Three measurements:

* **Overhead grid** — one lively ZT-NRP profile run plain (the
  baseline) and then under every interesting durability configuration:
  journal with ``fsync`` never / interval / every over RAM planes, and
  never / every over ``storage="mmap"`` planes.  Every durable run's
  ledger must be byte-identical to the baseline's (the WAL wrapper is
  observationally invisible); the artifact tracks the wall-clock
  multiplier of each rung so the cost of durability is a measured
  curve, not folklore.

* **Segment-size row** — ZT-NRP at n = 10,000 under ``never+ram`` with
  ``segment_records`` in {256, 1024, 4096}, plus one n = 100,000 point
  at 1024: each durable wall over its plain sibling's, ledgers equal.
  A WAL segment is a frontier inside one replay (DESIGN.md §11), so the
  ratio should be flat in the segment size and in the population; when
  every segment was its own ``replay()`` call it read ~4x at 1024 and
  grew with n.  One deliberately loose
  floor, on the marginal cost of a segment boundary (the wall between
  256- and 4096-record segments over the boundaries between them, so
  the run's fixed costs drop out): the boundaries at
  ``segment_records=1024``, n = 10,000, add at most
  ``SEGMENT_FLOOR_X - 1`` plain runs.

* **Large-population mmap row** — n = 1,000,000 streams (200k under
  ``BENCH_SMOKE``) with disk-backed planes and a journal at
  ``fsync="never"``: the population whose state planes should *not* be
  RAM-resident.  Records the end-to-end wall and journal bytes; no
  baseline comparison (the point is that it runs at all, with state on
  disk).

Only ``Engine.run`` is timed: a durable run's temporary directory is
made and removed outside the timed region.  Asserts ledger
byte-equality for every durable grid run and a sane
overhead ordering (``fsync="every"`` is the most expensive rung; the
guard is intentionally loose — per-event fsync cost is
filesystem-dependent).

Set ``BENCH_OUTPUT_DIR`` to write ``BENCH_durability.json`` (uploaded
by the CI bench-smoke job); ``BENCH_SMOKE=1`` shrinks the grid profile
and the large row for CI.
"""

from __future__ import annotations

import tempfile

from bench_artifacts import SMOKE, best_of, write_artifact

from repro.api import Deployment, Engine, QuerySpec, Workload
from repro.durability import DurabilityPolicy
from repro.queries.range_query import RangeQuery

N_STREAMS = 5_000
SIGMA = 150.0
HORIZON = 40.0 if SMOKE else 120.0
LARGE_N = 200_000 if SMOKE else 1_000_000
LARGE_HORIZON = 1.0
REPEATS = 1 if SMOKE else 3
#: Each wall behind an asserted ratio is a best of at least five: under
#: ``BENCH_SMOKE`` those walls are a few milliseconds, where one run
#: apiece let host noise decide the comparison.
RATIO_REPEATS = max(REPEATS, 5)
SEGMENT_RECORDS = 4096

#: The segment-size row: (n_streams, horizon, segment_records) — both
#: populations replay ~150k records (sigma = 150).
SEGMENT_ROW = (
    (10_000, 300.0, 256),
    (10_000, 300.0, 1024),
    (10_000, 300.0, 4096),
    (100_000, 30.0, 1024),
)
SEGMENT_FLOOR_X = 3.0

#: label -> (fsync policy, plane storage).  ``None`` is the plain
#: baseline (no journal, no policy at all).
GRID: dict[str, tuple[str, str] | None] = {
    "off": None,
    "never+ram": ("never", "ram"),
    "interval+ram": ("interval", "ram"),
    "every+ram": ("every", "ram"),
    "never+mmap": ("never", "mmap"),
    "every+mmap": ("every", "mmap"),
}

_RESULTS: dict = {
    "profile": {
        "n_streams": N_STREAMS,
        "sigma": SIGMA,
        "horizon": HORIZON,
        "segment_records": SEGMENT_RECORDS,
    },
    "grid": {},
    "segments": [],
    "large": {},
}


def _spec() -> QuerySpec:
    return QuerySpec(protocol="zt-nrp", query=RangeQuery(400.0, 600.0))


def _durable_best_of(
    engine, spec, workload, fsync, storage, segment_records, repeats
):
    """``best_of`` over durable ``Engine.run`` calls alone: the temporary
    directory holding each repeat's run directory is made before the
    first and removed after the last, so its set-up and teardown stay
    outside the timed region."""
    with tempfile.TemporaryDirectory(prefix="bench_durability_") as tmp:
        run_dirs = iter(f"{tmp}/run{i}" for i in range(repeats))
        return best_of(
            lambda: engine.run(
                spec,
                workload,
                Deployment.single(
                    durable=DurabilityPolicy(
                        run_dir=next(run_dirs),
                        fsync=fsync,
                        storage=storage,
                        segment_records=segment_records,
                    )
                ),
            ),
            repeats,
        )


def test_bench_durability_overhead():
    workload = Workload.synthetic(
        n_streams=N_STREAMS, horizon=HORIZON, sigma=SIGMA, seed=0
    )
    trace = workload.materialize()
    engine = Engine()
    spec = _spec()
    print()
    print(
        f"durability overhead: {trace.n_streams} streams, "
        f"{trace.n_records} records, sigma={SIGMA:g}, ZT-NRP [400, 600]"
    )
    print(
        f"{'config':>14} {'wall':>8} {'overhead':>9} {'journal':>10} "
        f"{'fsyncs':>7} {'ledger':>7}"
    )

    baseline, t_base = best_of(
        lambda: engine.run(spec, workload, Deployment.single()), RATIO_REPEATS
    )
    print(
        f"{'off':>14} {t_base:>7.3f}s {'1.00x':>9} {'-':>10} {'-':>7} "
        f"{'base':>7}"
    )
    _RESULTS["grid"]["off"] = {"wall_seconds": t_base, "overhead_x": 1.0}

    walls = {}
    for label, config in GRID.items():
        if config is None:
            continue
        fsync, storage = config
        report, wall = _durable_best_of(
            engine, spec, workload, fsync, storage, SEGMENT_RECORDS,
            RATIO_REPEATS,
        )
        assert report.ledger == baseline.ledger, (
            f"durable run {label} ledger diverged from plain baseline"
        )
        assert report.final_answer == baseline.final_answer
        journal = report.extras["durability"]["journal"]
        overhead = wall / t_base
        walls[label] = wall
        print(
            f"{label:>14} {wall:>7.3f}s {overhead:>8.2f}x "
            f"{journal['bytes'] / 1e6:>8.1f}MB {journal['fsyncs']:>7} "
            f"{'equal':>7}"
        )
        _RESULTS["grid"][label] = {
            "wall_seconds": wall,
            "overhead_x": overhead,
            "journal_bytes": journal["bytes"],
            "journal_appends": journal["appends"],
            "fsyncs": journal["fsyncs"],
        }

    # Per-event fsync is the expensive rung; the cheap rungs must not
    # cost more than it (loose: media and page cache vary by machine).
    assert walls["every+ram"] >= walls["never+ram"] * 0.8


def test_bench_durability_segment_size():
    """Durable / plain wall by segment size and population."""
    engine = Engine()
    spec = _spec()
    # The floor compares differences of sub-second walls.
    repeats = RATIO_REPEATS
    print()
    print("segment size: ZT-NRP [400, 600], sigma=150, fsync=never, ram planes")
    print(
        f"{'n':>8} {'records':>8} {'segment':>8} {'segments':>9} "
        f"{'plain':>8} {'durable':>8} {'ratio':>6}"
    )
    plain: dict = {}
    walls: dict = {}
    for n_streams, horizon, segment_records in SEGMENT_ROW:
        if n_streams not in plain:
            workload = Workload.synthetic(
                n_streams=n_streams, horizon=horizon, sigma=SIGMA, seed=0
            )
            workload.materialize()
            plain[n_streams] = workload, *best_of(
                lambda w=workload: engine.run(spec, w, Deployment.single()),
                repeats,
            )
        workload, baseline, t_plain = plain[n_streams]
        report, wall = _durable_best_of(
            engine, spec, workload, "never", "ram", segment_records, repeats
        )
        assert report.ledger == baseline.ledger
        assert report.final_answer == baseline.final_answer
        segments = report.extras["durability"]["segments"]
        ratio = wall / t_plain
        print(
            f"{n_streams:>8} {report.n_records:>8} {segment_records:>8} "
            f"{segments:>9} {t_plain:>7.3f}s {wall:>7.3f}s {ratio:>5.2f}x"
        )
        _RESULTS["segments"].append(
            {
                "n_streams": n_streams,
                "n_records": report.n_records,
                "segment_records": segment_records,
                "segments": segments,
                "plain_wall_seconds": t_plain,
                "wall_seconds": wall,
                "vs_plain_x": ratio,
            }
        )
        walls[n_streams, segment_records] = wall, segments, t_plain

    # A segment boundary's marginal cost: the wall it adds between 256-
    # and 4096-record segments at n = 10,000.  The durable run's fixed
    # costs (manifest, close-time fsync) do not depend on the segment
    # size, so this is the cost the ratio floor stood in for: the
    # boundaries at 1024 may add at most SEGMENT_FLOOR_X - 1 plain runs.
    (fine, fine_segments, _), (coarse, coarse_segments, _) = (
        walls[10_000, 256],
        walls[10_000, 4096],
    )
    per_boundary = (fine - coarse) / (fine_segments - coarse_segments)
    _, segments, t_plain = walls[10_000, 1024]
    added = per_boundary * segments
    print(
        f"marginal cost per segment boundary: {per_boundary * 1e6:.1f} us; "
        f"{segments} boundaries at 1024 add {added / t_plain:.2f} plain runs"
    )
    _RESULTS["segment_boundary_us"] = per_boundary * 1e6
    assert added <= (SEGMENT_FLOOR_X - 1) * t_plain, (
        f"{segments} segment boundaries at segment_records=1024 add "
        f"{added / t_plain:.2f} plain runs ({per_boundary * 1e6:.1f} us "
        f"each; floor {SEGMENT_FLOOR_X - 1:g}, i.e. {SEGMENT_FLOOR_X}x)"
    )


def test_bench_durability_large_population_mmap():
    """n >= 1M streams with disk-backed planes and a journal."""
    workload = Workload.synthetic(
        n_streams=LARGE_N, horizon=LARGE_HORIZON, seed=7
    )
    trace = workload.materialize()
    engine = Engine()
    spec = _spec()
    print()
    print(
        f"large-population mmap: {trace.n_streams} streams, "
        f"{trace.n_records} records, storage=mmap, fsync=never"
    )

    with tempfile.TemporaryDirectory(prefix="bench_durability_big_") as tmp:
        policy = DurabilityPolicy(
            run_dir=tmp + "/run",
            fsync="never",
            storage="mmap",
            segment_records=8192,
        )
        # A 1M-stream run is not worth repeating: time it once.
        report, wall = best_of(
            lambda: engine.run(
                spec, workload, Deployment.single(durable=policy)
            ),
            1,
        )

    durability = report.extras["durability"]
    assert durability["storage"] == "mmap"
    assert durability["journal"]["bytes"] > 0
    throughput = trace.n_records / wall if wall else 0.0
    print(
        f"{'wall':>14} {wall:>7.1f}s  journal "
        f"{durability['journal']['bytes'] / 1e6:.1f}MB  "
        f"replay {throughput / 1e3:.1f}k rec/s"
    )
    _RESULTS["large"] = {
        "n_streams": LARGE_N,
        "n_records": int(trace.n_records),
        "horizon": LARGE_HORIZON,
        "wall_seconds": wall,
        "journal_bytes": durability["journal"]["bytes"],
        "storage": "mmap",
    }

    write_artifact("durability", _RESULTS)
