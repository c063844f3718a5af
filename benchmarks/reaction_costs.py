"""Where an RTP reaction's time goes, on the ``topk_reinit`` workload.

Runs the end-to-end ``topk_reinit`` workload (its own spec, trace and
deployment, seed 0) and times, per run and per call, the parts of
RTP's Case-3 reaction (paper Figure 5, Step 7):

* **reaction** — ``_case_enters`` as a whole;
* **probes** — the scalar probes of the tracked set;
* **deploy_bound** — recomputing ``R`` and broadcasting it;
* **broadcast** — ``deploy_many``, the n-message install inside it;
* **rank repair** — ``RankView._repair`` (the initial rebuild included).

The rows nest (a reaction holds its probes and its ``deploy_bound``,
which holds the broadcast and a repair), and each timed call pays two
clock reads, so compare trees, not absolute numbers.  Every name timed
here exists in both trees of a comparison.

Run from the repository root, in each tree to compare::

    python -m benchmarks.reaction_costs [--runs 200]
"""

from __future__ import annotations

import argparse
import functools
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from benchmarks.e2e.workloads import BY_NAME  # noqa: E402
from repro.api import Engine  # noqa: E402
from repro.protocols.rtp import RankToleranceProtocol  # noqa: E402
from repro.server.sharded import ShardedServer  # noqa: E402
from repro.state.rank import RankView  # noqa: E402

#: label -> (class, method), in print order.
PARTS = {
    "reaction": (RankToleranceProtocol, "_case_enters"),
    "probes": (ShardedServer, "probe"),
    "deploy_bound": (RankToleranceProtocol, "_deploy_bound"),
    "broadcast": (ShardedServer, "deploy_many"),
    "rank repair": (RankView, "_repair"),
}


def _timed(walls: Counter, calls: Counter, label: str, method):
    @functools.wraps(method)
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return method(*args, **kwargs)
        finally:
            walls[label] += time.perf_counter() - start
            calls[label] += 1

    return wrapper


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=200)
    args = parser.parse_args(argv)
    defn = BY_NAME["topk_reinit"]
    workload = defn.workload(seed=0)
    workload.materialize()
    deployment = defn.deployment("")
    engine = Engine()
    walls: Counter = Counter()
    calls: Counter = Counter()
    for label, (owner, name) in PARTS.items():
        setattr(owner, name, _timed(walls, calls, label, getattr(owner, name)))
    engine.run(defn.spec, workload, deployment)  # warm-up
    per_run = {label: [] for label in PARTS}
    run_walls = []
    for _ in range(args.runs):
        walls.clear()
        calls.clear()
        start = time.perf_counter()
        engine.run(defn.spec, workload, deployment)
        run_walls.append(time.perf_counter() - start)
        for label in PARTS:
            per_run[label].append((walls[label], calls[label]))
    print(f"topk_reinit, seed 0, {args.runs} runs (medians)")
    print(f"{'part':>14} {'ms/run':>8} {'calls/run':>10} {'us/call':>8}")
    print(f"{'Engine.run':>14} {statistics.median(run_walls) * 1e3:>8.3f}")
    for label, samples in per_run.items():
        wall = statistics.median(w for w, _ in samples)
        count = statistics.median(c for _, c in samples)
        per_call = wall / count * 1e6 if count else 0.0
        print(f"{label:>14} {wall * 1e3:>8.3f} {count:>10.0f} {per_call:>8.1f}")


if __name__ == "__main__":
    main()
