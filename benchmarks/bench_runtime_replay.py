"""Per-event vs. batched replay wall-clock on the figure01 workload.

The batched fast path pre-scans trace chunks with numpy against the
deployed filter bounds and applies quiescent records in bulk; only
potential violations take the per-event path.  Its payoff therefore
scales with the fraction of quiescent records — exactly the regime the
paper's filters are deployed for.  This benchmark replays the figure01
workload (synthetic, default profile) with checking disabled:

* across the figure's eps sweep for the value-window scheme, asserting
  a >= 2x speedup in the filtering regime (where the windows suppress
  the bulk of the traffic), and
* under RTP, asserting the adaptive bailout keeps even the
  broadcast-heavy protocol within a modest overhead of per-event replay.

Ledger equality between the two paths is asserted on every run (the
equivalence corpus lives in tests/runtime/test_session.py).

Set ``BENCH_OUTPUT_DIR`` to also write a ``BENCH_runtime_replay.json``
artifact (uploaded by the CI bench-smoke job); ``BENCH_SMOKE=1`` shrinks
the sweep for CI.
"""

from __future__ import annotations

from bench_artifacts import SMOKE, best_of, write_artifact
from replay_forcing import run_forced

from repro.api import Engine, QuerySpec
from repro.protocols.rtp import RankToleranceProtocol
from repro.queries.knn import TopKQuery
from repro.streams.synthetic import SyntheticConfig, generate_synthetic_trace
from repro.tolerance.rank_tolerance import RankTolerance

# figure01's DEFAULT profile workload and sweep.
N_STREAMS = 400
HORIZON = 300.0
SEED = 0
K = 10
R = 5
EPS_VALUES = (
    [10.0, 150.0, 800.0] if SMOKE else [2.0, 10.0, 50.0, 150.0, 400.0, 800.0]
)
REPEATS = 1 if SMOKE else 3
#: Each wall behind the asserted 2x is a best of at least five: one
#: sample per side reads red or green by host load, not by the code.
RATIO_REPEATS = max(REPEATS, 5)

_RESULTS: dict[str, list | dict] = {"value_window": [], "rtp": {}}


def _trace():
    return generate_synthetic_trace(
        SyntheticConfig(n_streams=N_STREAMS, horizon=HORIZON, seed=SEED)
    )


def _best_of(mode, fn, repeats=REPEATS):
    """Best wall of *fn* with replay forced to *mode* (the forcing patch
    stays outside the timed calls)."""
    return run_forced(mode, lambda: best_of(fn, repeats))


def test_bench_value_window_replay():
    trace = _trace()
    print()
    print(f"figure01 workload: {trace.n_streams} streams, "
          f"{trace.n_records} records, checking disabled")
    print(f"{'eps':>8} {'messages':>9} {'event':>9} {'batch':>9} {'speedup':>8}")
    filtering_event = filtering_batch = 0.0
    for eps in EPS_VALUES:
        spec = QuerySpec("value-eps", TopKQuery(k=K), options={"eps": eps})
        event, t_event = _best_of(
            "event", lambda: Engine().run(spec, trace), RATIO_REPEATS
        )
        batch, t_batch = _best_of(
            "batch", lambda: Engine().run(spec, trace), RATIO_REPEATS
        )
        assert event.ledger == batch.ledger
        print(f"{eps:>8} {event.maintenance_messages:>9} "
              f"{t_event * 1e3:>8.1f}ms {t_batch * 1e3:>8.1f}ms "
              f"{t_event / t_batch:>7.2f}x")
        _RESULTS["value_window"].append(
            {
                "eps": eps,
                "maintenance_messages": event.maintenance_messages,
                "event_ms": round(t_event * 1e3, 3),
                "batch_ms": round(t_batch * 1e3, 3),
            }
        )
        # The filtering regime: windows suppress >= 90% of the records.
        if event.maintenance_messages < 0.1 * trace.n_records:
            filtering_event += t_event
            filtering_batch += t_batch
    assert filtering_batch > 0, (
        "no eps in the sweep reached the filtering regime; "
        "the speedup target is unmeasurable on this workload"
    )
    speedup = filtering_event / filtering_batch
    print(f"filtering regime aggregate: {speedup:.2f}x")
    _RESULTS["value_window_speedup"] = round(speedup, 2)
    write_artifact("runtime_replay", _RESULTS)
    assert speedup >= 2.0, (
        f"batched replay only {speedup:.2f}x faster in the filtering regime"
    )


def test_bench_rtp_replay_no_regression():
    trace = _trace()
    tolerance = RankTolerance(k=K, r=R)

    def run():
        return Engine().run_protocol(
            trace,
            RankToleranceProtocol(TopKQuery(k=K), tolerance),
            tolerance=tolerance,
        )

    event, t_event = _best_of("event", run)
    batch, t_batch = _best_of("batch", run)
    assert event.ledger == batch.ledger
    print()
    print(f"RTP(r={R}): event {t_event * 1e3:.1f}ms "
          f"batch {t_batch * 1e3:.1f}ms ({t_event / t_batch:.2f}x)")
    _RESULTS["rtp"] = {
        "r": R,
        "event_ms": round(t_event * 1e3, 3),
        "batch_ms": round(t_batch * 1e3, 3),
    }
    write_artifact("runtime_replay", _RESULTS)
    # The bailout must keep the constraint-heavy protocol close to par.
    assert t_batch <= 1.5 * t_event
