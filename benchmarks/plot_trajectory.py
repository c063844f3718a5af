"""Perf trajectory: fold accumulated ``BENCH_*.json`` artifacts into one
summary.

CI's bench-smoke job uploads a ``BENCH_<name>.json`` per bench per
commit.  Downloading those artifacts into per-commit directories (any
layout works — this tool finds every ``BENCH_*.json`` under the given
roots and labels each file by its parent directory) and pointing this
script at them yields the cross-commit trajectory of the headline
metrics the benches track:

* ``state_engine``   — bulk-recompute and point-update speedups
* ``runtime_replay`` — batched-replay filtering-regime speedup
* ``dispatch``       — run-kernel speedup on the dispatch-heavy profile
* ``sharded``        — per-shard capacity speedup at 4 shards, plus the
  transport-parallel coupled-protocol speedup and the coordination
  fraction (coordinator compute / modeled parallel wall) at 4 shards,
  on both the scalar and the spatial (ZT-RP-2d) transport vocabularies
* ``spatial``        — batched spatial replay speedup + message curves
* ``latency``        — stale-belief violation rate and message overhead
  at the largest modeled latency (requirement-2 degradation study)
* ``durability``     — wall-clock multiplier of the write-ahead journal
  at ``fsync="never"`` and ``fsync="every"`` over RAM planes

Usage::

    python benchmarks/plot_trajectory.py DIR [DIR ...] \
        [--json OUT.json] [--plot OUT.png]

With one directory (one commit's artifacts) it degrades to a snapshot
summary — which is exactly what the CI smoke step runs against the
artifacts it just produced.  ``--plot`` renders a PNG when matplotlib
is importable and is silently skipped (with a note) when it is not, so
the tool stays dependency-free on CI.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

def _rows_speedup(section: str):
    """Largest-n row's speedup from a per-size row list."""

    def extract(payload: dict):
        rows = payload.get(section) or []
        return rows[-1].get("speedup") if rows else None

    return extract


def _path(*keys: str):
    def extract(payload: dict):
        node = payload
        for key in keys:
            if not isinstance(node, dict) or key not in node:
                return None
            node = node[key]
        return node if isinstance(node, (int, float)) else None

    return extract


def _curve_tail(*keys: str):
    """Last point of a per-latency curve list at the given path."""

    def extract(payload: dict):
        node = payload
        for key in keys:
            if not isinstance(node, dict) or key not in node:
                return None
            node = node[key]
        if isinstance(node, list) and node:
            tail = node[-1]
            return tail if isinstance(tail, (int, float)) else None
        return None

    return extract


#: metric label -> (bench name, extractor over that bench's artifact).
HEADLINE_METRICS: dict[str, tuple[str, object]] = {
    "state_recompute_speedup": ("state_engine", _rows_speedup("recompute")),
    "state_point_update_speedup": (
        "state_engine",
        _rows_speedup("point_update"),
    ),
    "replay_filtering_speedup": (
        "runtime_replay",
        _path("value_window_speedup"),
    ),
    "dispatch_kernel_speedup": (
        "dispatch",
        _path("dispatch_heavy_speedup"),
    ),
    "sharded_capacity_speedup_x4": (
        "sharded",
        _path("shards", "4", "speedup_vs_single"),
    ),
    "sharded_rtp_overhead_x4": (
        "sharded",
        _path("rtp_coordinator", "overhead"),
    ),
    "transport_coupled_speedup_x4": (
        "sharded",
        _path("transport", "shards", "4", "speedup_vs_sequential"),
    ),
    "transport_coordination_fraction_x4": (
        "sharded",
        _path("transport", "shards", "4", "coordination_fraction"),
    ),
    "spatial_transport_speedup_x4": (
        "sharded",
        _path("spatial_transport", "shards", "4", "speedup_vs_sequential"),
    ),
    "spatial_batch_speedup": ("spatial", _path("batched_replay", "speedup")),
    "latency_max_violation_rate": (
        "latency",
        _curve_tail("profiles", "default", "rtp", "violation_rate"),
    ),
    "latency_max_message_overhead": (
        "latency",
        _curve_tail("profiles", "default", "rtp", "message_overhead"),
    ),
    "durability_journal_overhead": (
        "durability",
        _path("grid", "never+ram", "overhead_x"),
    ),
    "durability_fsync_every_overhead": (
        "durability",
        _path("grid", "every+ram", "overhead_x"),
    ),
}


def discover(roots: list[Path]) -> dict[str, dict[str, dict]]:
    """``label -> bench name -> artifact dict`` for every BENCH_*.json.

    The label is the artifact's parent directory relative to its root
    (typically one subdirectory per commit).  With several roots the
    label is qualified by the root as given on the command line —
    per-commit roots whose artifacts sit in identically-named subdirs
    (the standard ``bench-artifacts/`` download layout) must not
    collapse into one run.
    """
    runs: dict[str, dict[str, dict]] = {}
    for root in roots:
        for path in sorted(root.rglob("BENCH_*.json")):
            relative = str(path.parent.relative_to(root))
            if len(roots) > 1:
                prefix = str(root).rstrip("/")
                label = (
                    prefix if relative == "." else f"{prefix}/{relative}"
                )
            else:
                label = root.name or "." if relative == "." else relative
            bench = path.stem[len("BENCH_") :]
            try:
                payload = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError) as error:
                print(f"skipping {path}: {error}", file=sys.stderr)
                continue
            runs.setdefault(label, {})[bench] = payload
    return runs


def summarize(runs: dict[str, dict[str, dict]]) -> dict:
    """``{"runs": [...], "metrics": {metric: {label: value}}}``."""
    metrics: dict[str, dict[str, float]] = {}
    for label, benches in sorted(runs.items()):
        for metric, (bench, extract) in HEADLINE_METRICS.items():
            payload = benches.get(bench)
            if payload is None:
                continue
            value = extract(payload)
            if value is not None:
                metrics.setdefault(metric, {})[label] = float(value)
    return {"runs": sorted(runs), "metrics": metrics}


def format_summary(summary: dict) -> str:
    runs = summary["runs"]
    lines = [
        f"perf trajectory over {len(runs)} run(s): {', '.join(runs)}",
        "",
        f"{'metric':<32} " + " ".join(f"{label:>12}" for label in runs),
    ]
    for metric in HEADLINE_METRICS:
        values = summary["metrics"].get(metric)
        if not values:
            continue
        cells = [
            f"{values[label]:>11.2f}x" if label in values else f"{'-':>12}"
            for label in runs
        ]
        lines.append(f"{metric:<32} " + " ".join(cells))
    if len(lines) == 3:
        lines.append("(no headline metrics found)")
    return "\n".join(lines)


def plot(summary: dict, out: Path) -> bool:
    """Render the trajectory as a PNG; returns False without matplotlib."""
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print(f"matplotlib unavailable; skipping {out}", file=sys.stderr)
        return False
    runs = summary["runs"]
    figure, axis = plt.subplots(figsize=(8, 4.5))
    for metric, values in summary["metrics"].items():
        ys = [values.get(label) for label in runs]
        axis.plot(range(len(runs)), ys, marker="o", label=metric)
    axis.set_xticks(range(len(runs)), runs, rotation=30, ha="right")
    axis.set_ylabel("speedup / overhead (x)")
    axis.set_title("bench trajectory")
    axis.legend(fontsize=7)
    figure.tight_layout()
    figure.savefig(out, dpi=120)
    plt.close(figure)
    return True


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Summarize accumulated BENCH_*.json artifacts."
    )
    parser.add_argument(
        "roots",
        nargs="+",
        type=Path,
        help="directories holding BENCH_*.json files (one per commit)",
    )
    parser.add_argument(
        "--json", type=Path, default=None, help="write the summary as JSON"
    )
    parser.add_argument(
        "--plot",
        type=Path,
        default=None,
        help="write a PNG (requires matplotlib; skipped when absent)",
    )
    args = parser.parse_args(argv)

    missing = [root for root in args.roots if not root.is_dir()]
    if missing:
        parser.error(
            "not a directory: " + ", ".join(str(root) for root in missing)
        )
    runs = discover(args.roots)
    if not runs:
        print("no BENCH_*.json artifacts found", file=sys.stderr)
        return 1
    summary = summarize(runs)
    print(format_summary(summary))
    if args.json is not None:
        args.json.write_text(json.dumps(summary, indent=2, sort_keys=True))
        print(f"\nwrote {args.json}")
    if args.plot is not None and plot(summary, args.plot):
        print(f"wrote {args.plot}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
