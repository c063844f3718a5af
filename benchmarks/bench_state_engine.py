"""Recompute-path speedup of the columnar state engine.

The seed protocols re-derived rank order with a full python ``sorted()``
over a per-protocol dict — one key call per stream — on every
recomputation (ZT-RP / FT-RP resolve a fresh collection, RTP re-reads
the full order after point updates).  The state engine replaces both
paths:

* **full-collection recompute** — vectorized bulk ingest into the
  :class:`~repro.state.table.StreamStateTable` plus a heap-style partial
  selection (:meth:`~repro.state.rank.RankView.leaders`) for the
  ``k + 1`` leaders: O(n) C-level work instead of O(n log n) python;
* **point-update order maintenance** — dirty-region repair of the
  maintained order instead of a full re-sort per read.

This bench measures both against faithful re-implementations of the
legacy dict+sorted code and asserts the >= 2x target of the state-engine
acceptance criteria at n >= 10k streams.  Set ``BENCH_OUTPUT_DIR`` to
also write a ``BENCH_state_engine.json`` artifact (the CI bench-smoke
job uploads it so the perf trajectory accumulates); ``BENCH_SMOKE=1``
shrinks the grid for CI.
"""

from __future__ import annotations

import time

import numpy as np
from bench_artifacts import SMOKE, write_artifact

from repro.queries.knn import KnnQuery
from repro.state.rank import RankView
from repro.state.table import StreamStateTable

GRID_N = [10_000] if SMOKE else [10_000, 20_000]
K = 50
ROUNDS = 10 if SMOKE else 25
SPEEDUP_TARGET = 2.0

_RESULTS: dict[str, list[dict]] = {"recompute": [], "point_update": []}


def _values(n: int, round_index: int, rng: np.random.Generator) -> np.ndarray:
    base = rng.normal(500.0, 120.0, size=n)
    return base + 0.1 * round_index


def _legacy_resolve(query, known: dict[int, float]) -> tuple[list[int], float]:
    """The seed's ZT-RP/FT-RP resolve: full python sort, lambda keys."""
    order = sorted(known, key=lambda i: (query.distance(known[i]), i))
    k = query.k
    d_in = query.distance(known[order[k - 1]])
    d_out = query.distance(known[order[k]])
    return order[:k], (d_in + d_out) / 2.0


def _engine_resolve(query, table, rank) -> tuple[list[int], float]:
    """The state-engine resolve: bulk column read + partial selection."""
    leaders = rank.leaders(query.k + 1)
    values = table.values
    k = query.k
    d_in = query.distance(float(values[leaders[k - 1]]))
    d_out = query.distance(float(values[leaders[k]]))
    return leaders[:k], (d_in + d_out) / 2.0


def _report(section: str, n: int, t_legacy: float, t_engine: float) -> float:
    speedup = t_legacy / t_engine
    _RESULTS[section].append(
        {
            "n_streams": n,
            "k": K,
            "rounds": ROUNDS,
            "legacy_ms": round(t_legacy * 1e3, 3),
            "engine_ms": round(t_engine * 1e3, 3),
            "speedup": round(speedup, 2),
        }
    )
    print(
        f"{section:>14} n={n:>6}: legacy {t_legacy * 1e3:>8.1f}ms "
        f"engine {t_engine * 1e3:>8.1f}ms  ({speedup:.1f}x)"
    )
    return speedup


def test_bench_full_collection_recompute():
    """ZT-RP/FT-RP's resolve: every value fresh, k+1 leaders needed."""
    print()
    query = KnnQuery(q=500.0, k=K)
    worst = float("inf")
    for n in GRID_N:
        rng = np.random.default_rng(7)
        collections = [_values(n, r, rng) for r in range(ROUNDS)]

        known: dict[int, float] = {}
        start = time.perf_counter()
        for vals in collections:
            for i in range(n):  # the seed stored one probe reply at a time
                known[i] = vals[i]
            legacy_top, legacy_thr = _legacy_resolve(query, known)
        t_legacy = time.perf_counter() - start

        table = StreamStateTable(n)
        rank = RankView(table, query.distance_array)
        rows = np.arange(n)
        start = time.perf_counter()
        for vals in collections:
            table.record_report_rows(rows, vals, 0.0)
            engine_top, engine_thr = _engine_resolve(query, table, rank)
        t_engine = time.perf_counter() - start

        assert engine_top == legacy_top
        assert engine_thr == legacy_thr
        worst = min(worst, _report("recompute", n, t_legacy, t_engine))
    write_artifact("state_engine", _RESULTS)
    assert worst >= SPEEDUP_TARGET, (
        f"recompute path only {worst:.2f}x faster (target {SPEEDUP_TARGET}x)"
    )


def test_bench_point_update_order_maintenance():
    """RTP's ranked-known read after a point update (dirty repair)."""
    print()
    query = KnnQuery(q=500.0, k=K)
    worst = float("inf")
    for n in GRID_N:
        rng = np.random.default_rng(11)
        initial = _values(n, 0, rng)
        touched = rng.integers(0, n, size=ROUNDS)
        moved = rng.normal(500.0, 200.0, size=ROUNDS)

        known = {i: float(initial[i]) for i in range(n)}
        start = time.perf_counter()
        legacy_orders = []
        for r in range(ROUNDS):
            known[int(touched[r])] = float(moved[r])
            legacy_orders.append(
                sorted(known, key=lambda i: (query.distance(known[i]), i))
            )
        t_legacy = time.perf_counter() - start

        table = StreamStateTable(n)
        table.record_report_rows(np.arange(n), initial, 0.0)
        rank = RankView(table, query.distance_array)
        # In a live run the order exists from initialization; build it
        # outside the timer so rounds measure pure repair-and-read.
        rank.order()
        start = time.perf_counter()
        engine_orders = []
        for r in range(ROUNDS):
            table.record_report(int(touched[r]), float(moved[r]), float(r))
            engine_orders.append(rank.order())
        t_engine = time.perf_counter() - start

        assert engine_orders == legacy_orders
        worst = min(worst, _report("point_update", n, t_legacy, t_engine))
    write_artifact("state_engine", _RESULTS)
    assert worst >= SPEEDUP_TARGET, (
        f"point-update path only {worst:.2f}x faster (target {SPEEDUP_TARGET}x)"
    )
