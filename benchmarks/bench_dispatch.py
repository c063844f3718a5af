"""Dispatch-kernel wall-clock: per-event replay vs. the run kernel.

The columnar dispatch kernel (DESIGN.md §9) evaluates each trace chunk
with run segmentation and vectorized first-crossing detection, plus a
fully-columnar crossing application for ``columnar_maintenance``
protocols.  Its payoff matters most in the dispatch-heavy regime (large
jump scale ``sigma``), where crossings are frequent and a pre-scan that
re-scanned from every crossing (the retired first-hit chunk loop)
degenerated into a per-event scan with numpy overhead on top.

This benchmark times the **replay phase only** (assembly and the
initialization broadcast are identical across modes and would dilute
the measurement) on two profiles:

* ``default`` — the figure01 workload (400 streams, default sigma);
* ``dispatch_heavy`` — 10k streams at sigma=150, the regime named by
  the kernel's design target.

Ledger identity between every mode pair is asserted on every run; the
dispatch-heavy profile must clear 5x (2x under ``BENCH_SMOKE``, whose
shrunk horizon leaves less quiescence to amortize against).

Set ``BENCH_OUTPUT_DIR`` to also write a ``BENCH_dispatch.json``
artifact (uploaded by the CI bench-smoke job); ``BENCH_SMOKE=1``
shrinks the workloads for CI.
"""

from __future__ import annotations

import time

from bench_artifacts import SMOKE, write_artifact

from repro.api.spec import PROTOCOLS, QuerySpec
from repro.queries.range_query import RangeQuery
from repro.runtime.session import ExecutionSession
from repro.streams.synthetic import SyntheticConfig, generate_synthetic_trace

MODES = ("event", "batch")
REPEATS = 1 if SMOKE else 3
#: The smoke horizon leaves fewer quiescent records per crossing, so
#: the asserted floor is looser there (the CI guard is against gross
#: regressions, not the locally measured headline).
SPEEDUP_FLOOR = 2.0 if SMOKE else 5.0

PROFILES = {
    "default": SyntheticConfig(
        n_streams=400, horizon=60.0 if SMOKE else 300.0, seed=0
    ),
    "dispatch_heavy": SyntheticConfig(
        n_streams=10_000,
        horizon=60.0 if SMOKE else 150.0,
        sigma=150.0,
        seed=0,
    ),
}

_RESULTS: dict[str, dict] = {"profiles": {}}


def _spec() -> QuerySpec:
    return QuerySpec(protocol="zt-nrp", query=RangeQuery(400.0, 600.0))


def _best_replay(trace, mode: str):
    """Best-of-N wall time of the replay phase alone.

    ``bench_artifacts.best_of`` times a whole closure; here each repeat
    needs a fresh session whose assembly and initialization must stay
    outside the clock, so the timing loop is inlined.
    """
    best = float("inf")
    snapshot = stats = None
    for _ in range(REPEATS):
        protocol = PROTOCOLS["zt-nrp"][1](_spec())
        session = ExecutionSession.for_streams(trace, protocol)
        session.initialize(time=0.0)
        start = time.perf_counter()
        session.replay_trace(trace, mode=mode)
        best = min(best, time.perf_counter() - start)
        snapshot = session.snapshot()
        stats = session.last_replay_stats
    return snapshot, stats, best


def test_bench_dispatch_kernel():
    print()
    for name, config in PROFILES.items():
        trace = generate_synthetic_trace(config)
        print(f"{name}: {trace.n_streams} streams, {trace.n_records} records")
        print(f"{'mode':>12} {'kernel':>9} {'replay':>9} {'speedup':>8}")
        snapshots = {}
        row: dict[str, object] = {"records": trace.n_records}
        t_event = None
        for mode in MODES:
            snapshot, stats, wall = _best_replay(trace, mode)
            snapshots[mode] = snapshot
            if mode == "event":
                t_event = wall
            speedup = t_event / wall
            kernel = stats["kernel"] or "-"
            print(f"{mode:>12} {kernel:>9} {wall * 1e3:>8.1f}ms "
                  f"{speedup:>7.2f}x")
            row[mode] = {
                "ms": round(wall * 1e3, 3),
                "kernel": stats["kernel"],
                "dispatches": stats["dispatches"],
                "columnar_reports": stats["columnar_reports"],
                "speedup_vs_event": round(speedup, 2),
            }
            assert snapshot == snapshots["event"], (
                f"{name}/{mode}: ledger diverged from per-event replay"
            )
        _RESULTS["profiles"][name] = row
    headline = _RESULTS["profiles"]["dispatch_heavy"]["batch"][
        "speedup_vs_event"
    ]
    _RESULTS["dispatch_heavy_speedup"] = headline
    write_artifact("dispatch", _RESULTS)
    assert headline >= SPEEDUP_FLOOR, (
        f"run kernel only {headline:.2f}x on the dispatch-heavy profile "
        f"(floor {SPEEDUP_FLOOR}x)"
    )
