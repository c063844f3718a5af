"""The replay-strategy decision record: ``auto`` against each forced mode.

The engine picks how a run replays (``resolve_mode("auto", ...)``); no
deployment knob overrides it.  This grid checks that choice on the
workloads that judge the repo: each of the five end-to-end workloads
``BENCHMARK.json`` names (their own spec, trace and deployment) and each
of the eight paper figures at ``--profile default``, run under ``auto``
and under ``event`` / ``batch`` forced through the differential tests'
helper (``tests/replay_forcing.py``).

Every cell runs each mode once to warm up, then ``--runs`` rounds,
rotating which mode goes first.  ``auto / best`` is auto's median wall
over the faster forced mode's; ``auto resolved`` counts the strategies
auto's replays resolved to.  A cell is ``ok`` at <= 1.05.  Above that
it is ``UNRESOLVED`` when auto resolved exactly what the faster forced
mode did (the same code ran), when the medians differ by no more than
auto's interquartile range, or when the forced mode won fewer than nine
in ten rounds; else ``FORCED WINS``.  Every mode must leave the same
ledgers (figures: the same series) or the grid stops.

Run from the repository root::

    python -m benchmarks.replay_mode_grid [--runs 15] [--only NAME ...]

It prints one markdown row per cell (DESIGN.md §16.1 holds a committed
run).
"""

from __future__ import annotations

import argparse
import statistics
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "tests"))

from replay_forcing import forced_replay  # noqa: E402

from benchmarks.e2e.workloads import BY_NAME  # noqa: E402
from repro.api import Engine  # noqa: E402
from repro.experiments.base import Profile  # noqa: E402
from repro.experiments import FIGURES, evaluate  # noqa: E402

MODES = ("auto", "event", "batch")
#: The end-to-end workloads ``BENCHMARK.json`` judges.
JUDGED = (
    "range_filter",
    "range_checked_latency",
    "topk_reinit",
    "topk_transport",
    "range_durable",
)
WITHIN = 1.05


def _forced(mode: str, run):
    """``run()`` with replay forced to *mode*, and the strategies its
    replays resolved to, counted."""
    with forced_replay(mode) as resolutions:
        result = run()
    return result, ", ".join(
        f"{strategy} x{count}"
        for strategy, count in sorted(Counter(resolutions).items())
    )


def _workload_cell(name: str):
    """``run(mode) -> (comparable outcome, strategies resolved)``."""
    defn = BY_NAME[name]
    workload = defn.workload(seed=0)
    workload.materialize()

    def run(mode):
        with tempfile.TemporaryDirectory() as scratch:
            deployment = defn.deployment(str(Path(scratch) / "run"))
            report, resolved = _forced(
                mode, lambda: Engine().run(defn.spec, workload, deployment)
            )
        return report.ledger, resolved

    return run


def _figure_cell(name: str):
    def run(mode):
        result, resolved = _forced(
            mode, lambda: evaluate(name, profile=Profile.DEFAULT, seed=0)
        )
        return (result.x_values, result.series), resolved

    return run


def measure(name: str, run, runs: int) -> dict:
    walls = {mode: [] for mode in MODES}
    resolved = {}
    reference = None
    for mode in MODES:  # warm-up: imports, the trace's predecessor index
        run(mode)
    for round_ in range(runs):
        shift = round_ % len(MODES)
        for mode in MODES[shift:] + MODES[:shift]:
            started = time.perf_counter()
            outcome, resolved[mode] = run(mode)
            walls[mode].append(time.perf_counter() - started)
            if reference is None:
                reference = outcome
            elif outcome != reference:
                raise AssertionError(f"{name}: {mode} changed the outcome")
    median = {mode: statistics.median(walls[mode]) for mode in MODES}
    best = min(("event", "batch"), key=median.get)
    ratio = median["auto"] / median[best]
    q1, _, q3 = statistics.quantiles(walls["auto"], n=4)
    spread = f"auto IQR {(q3 - q1) / median['auto']:.0%}"
    wins = sum(b < a for a, b in zip(walls["auto"], walls[best]))
    if ratio <= WITHIN:
        verdict = "ok"
    elif resolved["auto"] == resolved[best]:
        verdict = f"UNRESOLVED: same strategies as {best} ({spread})"
    elif median["auto"] - median[best] <= q3 - q1 or wins < 0.9 * runs:
        verdict = f"UNRESOLVED ({spread}, {best} won {wins}/{runs})"
    else:
        verdict = f"FORCED WINS ({best} won {wins}/{runs})"
    return {
        "ms": {mode: median[mode] * 1e3 for mode in MODES},
        "best": best,
        "ratio": ratio,
        "verdict": verdict,
        "resolved": resolved["auto"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=15)
    parser.add_argument("--only", nargs="*", default=None)
    args = parser.parse_args(argv)
    cells = [(name, _workload_cell) for name in JUDGED] + [
        (name, _figure_cell) for name in FIGURES
    ]
    if args.only:
        cells = [cell for cell in cells if cell[0] in args.only]
    print(f"median of {args.runs} rotated runs per mode")
    print(
        "| cell | auto resolved | auto ms | event ms | batch ms "
        "| auto / best | verdict |"
    )
    print("| --- | --- | ---: | ---: | ---: | ---: | --- |")
    worst = 0.0
    for name, build in cells:
        row = measure(name, build(name), args.runs)
        ms = row["ms"]
        print(
            f"| {name} | {row['resolved']} | {ms['auto']:.0f} | "
            f"{ms['event']:.0f} | {ms['batch']:.0f} | "
            f"{row['ratio']:.2f} ({row['best']}) | {row['verdict']} |",
            flush=True,
        )
        worst = max(worst, row["ratio"])
    print(f"worst auto / best: {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
