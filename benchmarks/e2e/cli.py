"""Command line: the driver's one-workload mode and the full report.

With ``--trace`` this process measures exactly one workload and prints
the contract's result object as its last line (``--json`` adds the
samples and the span log).  Without it, every selected workload is
measured twice (``--trace 0`` then ``--trace 1``) in fresh subprocesses,
one at a time, and the merged report — every metric by name with its
unit, the sibling outlier table, the host record — is printed and
optionally written with ``--json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time

from benchmarks.e2e import REPO_ROOT

#: Numeric libraries must not fan out threads under a 2-core wall clock.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: The measuring window; ``BENCHMARK.json`` ``run_seconds`` repeats it.
RUN_SECONDS = 15.0
#: The contract's limit on one invocation, applied to the report's children.
CHILD_TIMEOUT_S = 180


def _parser(names: list[str]) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python3 -m benchmarks.e2e", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument(
        "--workload", action="append", choices=names, metavar="NAME",
        help="workload to run (repeatable in report mode; default: all)",
    )  # fmt: skip
    parser.add_argument("--seed", type=int, default=0,
                        help="feeds the Workload generator only")  # fmt: skip
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="measuring window per invocation (the driver "
                        "passes BENCHMARK.json run_seconds)")  # fmt: skip
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="one-workload mode: 0 = end-to-end metrics, "
                        "1 = per-layer metrics")  # fmt: skip
    parser.add_argument("--json", metavar="OUT",
                        help="write the report; in one-workload mode the "
                        "samples, siblings and span log")  # fmt: skip
    parser.add_argument("--smoke", action="store_true",
                        help="horizons / 20; output is stamped and refused "
                        "by compare")  # fmt: skip
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--write-expected", action="store_true",
                        help="regenerate expected_seed0.json from seed-0 runs")
    return parser


def main(argv: list[str] | None = None) -> int:
    for name in THREAD_ENV:  # before anything imports numpy
        os.environ[name] = "1"
    try:
        from benchmarks.e2e.workloads import BY_NAME
    except ModuleNotFoundError as error:
        print(f"bench_e2e needs the library under src/: {error}", file=sys.stderr)
        return 2

    args = _parser(list(BY_NAME)).parse_args(argv)
    if args.setup_probe or args.trace is not None:
        if not args.workload or len(args.workload) != 1:
            print("one-workload mode takes exactly one --workload", file=sys.stderr)
            return 2
        return _one_workload(BY_NAME[args.workload[0]], args)
    if args.write_expected:
        return _write_expected()
    return _report(args.workload or list(BY_NAME), args)


# ----------------------------------------------------------------------
# One workload, this process
# ----------------------------------------------------------------------
def _one_workload(defn, args) -> int:
    from benchmarks.e2e.measure import measure, setup_probe

    if args.setup_probe:
        setup_probe(defn, args.seed, args.smoke)
        return 0
    out = measure(defn, args.seed, args.seconds, bool(args.trace), args.smoke)
    for failure in out.failures:
        print("FAILED:", failure, file=sys.stderr)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(out.detail(), handle)
    if not out.metrics:
        return 1  # nothing measured: no result line
    print(json.dumps(out.result()))
    return 0


def _write_expected() -> int:
    from repro.api import Engine

    from benchmarks.e2e.measure import EXPECTED_PATH, observed_outputs
    from benchmarks.e2e.scratch import scratch_dir
    from benchmarks.e2e.workloads import WORKLOADS

    expected = {}
    with scratch_dir("expected-") as scratch:
        for defn in WORKLOADS:
            run_dir = tempfile.mkdtemp(dir=scratch)
            report = Engine().run(
                defn.spec, defn.workload(0), defn.deployment(run_dir)
            )
            expected[defn.name] = observed_outputs(report)
            print(defn.name, expected[defn.name])
    with open(EXPECTED_PATH, "w") as handle:
        json.dump(expected, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


# ----------------------------------------------------------------------
# Full report: fresh subprocess per workload and trace mode
# ----------------------------------------------------------------------
def host_record() -> dict:
    import numpy

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, check=True,
            capture_output=True, text=True,
        ).stdout.strip()  # fmt: skip
    except (OSError, subprocess.CalledProcessError):
        commit = None  # an exported checkout is not a git repository
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
    }


def _run_child(name: str, args, trace: int) -> dict:
    """One driver-style invocation in a fresh interpreter; its detail.

    A child that times out or dies before writing its detail is one
    failed attempt with no metrics, so the report goes on and says so.
    """
    from benchmarks.e2e.scratch import scratch_dir

    with scratch_dir("report-") as scratch:
        detail = scratch / "detail.json"
        command = [
            sys.executable, "-m", "benchmarks.e2e", "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(trace), "--json", str(detail),
        ]  # fmt: skip
        if args.smoke:
            command.append("--smoke")
        try:
            subprocess.run(
                command, cwd=REPO_ROOT, stdout=subprocess.DEVNULL,
                timeout=CHILD_TIMEOUT_S,
            )  # fmt: skip
            with open(detail) as handle:
                return json.load(handle)
        except (subprocess.TimeoutExpired, OSError, ValueError) as error:
            failure = f"{name} --trace {trace}: {type(error).__name__}: {error}"
            return {"attempted": 1, "failures": [failure], "metrics": {}}


def _report(names: list[str], args) -> int:
    started = time.perf_counter()
    report = {
        "benchmark": "bench_e2e",
        "claim": None,
        "smoke": args.smoke,
        "seed": args.seed,
        "seconds": args.seconds,
        "host": host_record(),
        "workloads": {},
        "siblings": [],
    }
    for name in names:
        # The driver's two invocations, one at a time.
        end_to_end = _run_child(name, args, trace=0)
        layers = _run_child(name, args, trace=1)
        children = (end_to_end, layers)
        attempted = sum(child["attempted"] for child in children)
        failures = [text for child in children for text in child["failures"]]
        report["workloads"][name] = {
            "correct": not failures,
            "attempted": attempted,
            "failed": len(failures),
            "failed_share": len(failures) / attempted,
            "failures": failures,
            "n_records": end_to_end.get("n_records", 0),
            "work_items": end_to_end.get("work_items", 0),
            "run_s": end_to_end.get("run_s"),
            "end_to_end": end_to_end["metrics"],
            "end_to_end_samples": end_to_end.get("end_to_end_samples", {}),
            "per_layer": layers["metrics"],
            "replay_kernel": layers.get("replay_kernel"),
            "missing_entry_points": layers.get("missing_entry_points", []),
            "spans_dropped": layers.get("spans_dropped", 0),
        }
        report["siblings"].extend(end_to_end.get("siblings", []))
        _print_workload(name, report["workloads"][name])
    _print_siblings(report["siblings"])
    report["total_s"] = time.perf_counter() - started
    print(f"\ntotal {report['total_s']:.1f} s")
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=1)
            handle.write("\n")
    failed = any(row["failed"] for row in report["workloads"].values())
    return 1 if failed else 0


def _print_workload(name: str, row: dict) -> None:
    print(f"\n== {name}  ({row['n_records']} records, {row['work_items']} items)")
    print(f"   runs: {row['attempted']} attempted, {row['failed']} failed")
    for failure in row["failures"]:
        print("   FAILED:", failure)
    run = row["run_s"]
    if run:
        print(
            f"   raw run_s median {run['median']:.4f} s over {run['samples']} "
            f"samples (q1 {run['q1']:.4f}, q3 {run['q3']:.4f}, "
            f"run_s_iqr_ratio {run['iqr_ratio']:.3f})"
        )
    for metric, entry in row["end_to_end"].items():
        count = len(row["end_to_end_samples"].get(metric, ()))
        print(
            f"   {metric:44s} {entry['value']:>16.6g} {entry['unit']:10s}"
            f" median of {count}"
        )
    for metric, entry in row["per_layer"].items():
        if entry["value"]:  # 0 = the layer does not run on this workload
            print(f"   {metric:44s} {entry['value']:>16.6g} {entry['unit']}")
    if row["missing_entry_points"]:
        print("   missing entry points:", ", ".join(row["missing_entry_points"]))


def _print_siblings(rows: list[dict]) -> None:
    if not rows:
        return
    print("\n== equivalent-deployment siblings (ledger-identical; wall ratio)")
    for row in rows:
        flag = "  <-- OUTLIER (> 2x)" if row["outlier"] else ""
        same = "" if row["ledger_identical"] else "  LEDGER DIFFERS"
        print(
            f"   {row['workload']:24s} {row['deployment']:30s} "
            f"{row['wall_s']:8.3f} s  vs {row['sibling']:20s} "
            f"{row['sibling_wall_s']:8.3f} s  = {row['ratio']:6.2f}x{flag}{same}"
        )
