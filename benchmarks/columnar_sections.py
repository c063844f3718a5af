"""Where a columnar replay's time goes: ``replay_columnar`` by section.

Times the sections of the columnar kernel's span loop on the end-to-end
``range_filter`` workload (its own spec, trace and deployment, seed 0):

* **crossings** — asking the provider for the live interval's
  crossings: on a trace's memo a lookup, the listing itself only on the
  trace's first run, which is the warm-up (on a kernel that lists them
  a block at a time, those blocks; on one that scans each chunk, that
  scan: containment, the believed side, the report positions);
* **spans** — a span's bounds, its candidates and the rows that still
  hold the interval;
* **absorb** — the protocol's ``absorb_reports`` and the cut behind a
  reaction;
* **reports** — the ledger charge and the plane writes of the quiet
  reports;
* **stage** — the value plane;
* **react** — a reacting record's per-event step, its protocol
  reaction included;
* **logged** — the check behind a reaction that wrote constraints: the
  rows its write log names (on a tree without a write log, the
  whole-table ``live_interval`` pass, inside ``react``).

The kernel is instrumented from outside: its source is re-compiled with
a clock read around each section — the top-level statements of the
loop, grouped by the branch that opens them — and patched in where the
session calls it.  The clock reads (two per section per span) are
inside every cell, so compare trees, not absolute numbers.  ``kernel``
is the whole call, loop overhead included.

Run from the repository root, in each tree to compare::

    python -m benchmarks.columnar_sections [--runs 9]
"""

from __future__ import annotations

import argparse
import ast
import inspect
import statistics
import sys
import textwrap
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from benchmarks.e2e.workloads import BY_NAME  # noqa: E402
from repro.api import Engine  # noqa: E402
from repro.runtime import replay, session  # noqa: E402

SECTIONS = ("crossings", "spans", "absorb", "reports", "stage", "react", "logged")
#: The branches that open a section, by their test (a per-chunk scan
#: has none of its own: the statements before the first branch are that
#: scan); any other branch stays in the section it is in.
BRANCHES = {
    "hits is None": "crossings",
    "at.size": "absorb",
    "quiet": "reports",
    "reacting": "react",
    "table.write_log": "logged",
}
#: The section of plain statements behind a branch's.
FOLLOWS = {"crossings": "spans", "absorb": "stage", "reports": "stage"}


def _sections(body: list[ast.stmt]) -> list[tuple[str, list[ast.stmt]]]:
    """The loop body as consecutive ``(section, statements)`` groups:
    statements before the first branch are crossings, each branch of
    :data:`BRANCHES` is its own section, and other statements behind
    one take the section that follows it."""
    groups: list[tuple[str, list[ast.stmt]]] = []
    section, branched = "crossings", False
    for statement in body:
        if isinstance(statement, ast.If):
            test = ast.unparse(statement.test)
            section = BRANCHES.get(test, FOLLOWS.get(section, section))
            branched = True
        elif branched:
            section = FOLLOWS.get(section, section)
        if groups and groups[-1][0] == section:
            groups[-1][1].append(statement)
        else:
            groups.append((section, [statement]))
    return groups


def instrumented_kernel(spent: dict):
    """``replay_columnar`` with each section's wall added to *spent*."""
    source = textwrap.dedent(inspect.getsource(replay.replay_columnar))
    tree = ast.parse(source)
    loop = next(node for node in ast.walk(tree) if isinstance(node, ast.While))
    body = []
    for section, statements in _sections(loop.body):
        body += ast.parse("_started = _clock()").body
        body += statements
        body += ast.parse(f"_spent[{section!r}] += _clock() - _started").body
    loop.body = body
    ast.fix_missing_locations(tree)
    namespace = dict(vars(replay), _clock=time.perf_counter, _spent=spent)
    exec(compile(tree, replay.__file__, "exec"), namespace)
    kernel = namespace["replay_columnar"]

    def timed(*args, **kwargs):
        started = time.perf_counter()
        try:
            return kernel(*args, **kwargs)
        finally:
            spent["kernel"] += time.perf_counter() - started

    return timed


def measure(runs: int) -> tuple[dict, dict, dict]:
    """Per-run medians (seconds) of every section, the kernel and the
    ``Engine.run`` wall, plus the last run's replay stats."""
    defn = BY_NAME["range_filter"]
    workload = defn.workload(seed=0)
    workload.materialize()
    samples: dict[str, list[float]] = {}
    spent: dict[str, float] = {}
    original = session.replay_columnar
    session.replay_columnar = instrumented_kernel(spent)
    try:
        for run in range(runs + 1):  # the first run warms up
            spent.update(dict.fromkeys((*SECTIONS, "kernel"), 0.0))
            started = time.perf_counter()
            report = Engine().run(defn.spec, workload, defn.deployment(""))
            wall = time.perf_counter() - started
            if run:
                for key, value in (*spent.items(), ("Engine.run", wall)):
                    samples.setdefault(key, []).append(value)
    finally:
        session.replay_columnar = original
    stats = report.extras["replay"]
    if stats["kernel"] != "columnar":
        raise SystemExit(f"range_filter did not replay columnar: {stats}")
    medians = {key: statistics.median(values) for key, values in samples.items()}
    quartiles = {
        key: statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        for key, values in samples.items()
    }
    return medians, quartiles, stats


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=9)
    args = parser.parse_args(argv)
    medians, quartiles, stats = measure(args.runs)
    print(
        f"range_filter, seed 0: {stats['chunk_scans']} spans, "
        f"{stats['dispatches']} reactions, {stats['columnar_reports']} "
        f"absorbed reports; medians of {args.runs} runs"
    )
    print("| section | ms per run | [q1, q3] | share of kernel |")
    print("|---|---|---|---|")
    kernel = medians["kernel"]
    for key in (*SECTIONS, "kernel", "Engine.run"):
        q1, _, q3 = quartiles[key]
        share = f"{medians[key] / kernel:.0%}" if key in SECTIONS else ""
        print(
            f"| {key} | {1e3 * medians[key]:.2f} | "
            f"[{1e3 * q1:.2f}, {1e3 * q3:.2f}] | {share} |"
        )


if __name__ == "__main__":
    main()
