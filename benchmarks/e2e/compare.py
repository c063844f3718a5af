"""Compare two bench_e2e reports: ``python3 -m benchmarks.e2e.compare A.json B.json``.

A is the parent (or first) report, B the change (or repeat); both come
from ``python3 -m benchmarks.e2e --json``.  Each end-to-end metric's
direction and bound are read from ``BENCHMARK.json``.  One row per
(workload, metric), verdict:

* ``within``     — B's median is no worse and no better than A's by more
  than the bound;
* ``better`` / ``worse`` — it moved by more than the bound;
* ``unresolved`` — the run-to-run spread (IQR / median of either side's
  samples) is wider than the bound, so the medians decide nothing —
  unless every sample of one side beats every sample of the other.

Ledger counts (``network.ledger.*``) must repeat exactly: a difference
is ``worse``.  Other per-layer counts that differ are listed as
``changed`` for the reader.  Exit status is non-zero on any ``worse``
or when B's ``failed_share`` is higher than A's — on the workloads
``BENCHMARK.json`` lists; rows of the measured-but-unjudged workloads
are printed with ``(unjudged)`` and never fail the comparison.
"""

from __future__ import annotations

import json
import sys
from typing import Sequence

from benchmarks.e2e import REPO_ROOT
from benchmarks.e2e.metrics import iqr_ratio

EXACT_UNITS = ("count", "bytes")


def load_contract(path=REPO_ROOT / "BENCHMARK.json") -> tuple[dict, set[str]]:
    """``({metric: {"better", "bound", ...}}, judged workload names)``."""
    with open(path) as handle:
        contract = json.load(handle)
    metrics = {row["name"]: row for row in contract["end_to_end"]}
    return metrics, {row["name"] for row in contract["workloads"]}


def verdict(
    a: float,
    b: float,
    better: str,
    bound: float,
    a_samples: Sequence[float] = (),
    b_samples: Sequence[float] = (),
) -> tuple[str, float, float]:
    """``(verdict, worsening, spread)``; worsening > 0 means B is worse,
    as a share of A."""
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (b - a) / a if a else 0.0
    spread = max(
        (iqr_ratio(s) for s in (a_samples, b_samples) if len(s) >= 2),
        default=0.0,
    )
    if spread > bound and a_samples and b_samples:
        if all(sign * (y - x) < 0 for x in a_samples for y in b_samples):
            return "better", worsening, spread
        if worsening > bound and all(
            sign * (y - x) > 0 for x in a_samples for y in b_samples
        ):
            return "worse", worsening, spread
        return "unresolved", worsening, spread
    if worsening > bound:
        return "worse", worsening, spread
    if worsening < -bound:
        return "better", worsening, spread
    return "within", worsening, spread


def compare(
    a: dict, b: dict, contract: dict, judged: set[str] | None = None
) -> tuple[list[dict], bool]:
    """Rows for every shared workload, and whether B regressed on a
    judged one (*judged* ``None`` judges them all)."""
    for side, report in (("A", a), ("B", b)):
        if report.get("smoke"):
            raise ValueError(
                f"report {side} is a --smoke run; smoke numbers are not "
                "comparable"
            )
    rows: list[dict] = []
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            continue
        for metric, spec in contract.items():
            ea, eb = wa["end_to_end"].get(metric), wb["end_to_end"].get(metric)
            if ea is None or eb is None:
                continue
            outcome, worsening, spread = verdict(
                ea["value"],
                eb["value"],
                spec["better"],
                spec["bound"],
                wa.get("end_to_end_samples", {}).get(metric, ()),
                wb.get("end_to_end_samples", {}).get(metric, ()),
            )
            rows.append(
                {
                    "workload": name,
                    "metric": metric,
                    "unit": ea["unit"],
                    "a": ea["value"],
                    "b": eb["value"],
                    "worsening": worsening,
                    "spread": spread,
                    "bound": spec["bound"],
                    "verdict": outcome,
                }
            )
        for metric, la in wa["per_layer"].items():
            lb = wb["per_layer"].get(metric)
            if lb is None or la["unit"] not in EXACT_UNITS:
                continue
            if la["value"] != lb["value"]:
                ledger = metric.startswith("network.ledger.")
                rows.append(
                    {
                        "workload": name,
                        "metric": metric,
                        "unit": la["unit"],
                        "a": la["value"],
                        "b": lb["value"],
                        "verdict": "worse" if ledger else "changed",
                    }
                )
        if wb["failed_share"] > wa["failed_share"]:
            rows.append(
                {
                    "workload": name,
                    "metric": "failed_share",
                    "unit": "ratio",
                    "a": wa["failed_share"],
                    "b": wb["failed_share"],
                    "verdict": "worse",
                }
            )
    for row in rows:
        row["judged"] = judged is None or row["workload"] in judged
    return rows, any(row["verdict"] == "worse" and row["judged"] for row in rows)


def format_row(row: dict) -> str:
    text = (
        f"{row['workload']:24s} {row['metric']:36s} "
        f"{row['a']:>14.6g} -> {row['b']:>14.6g} {row['unit']:10s}"
    )
    if "worsening" in row:
        text += (
            f" {row['worsening']:+8.1%} (bound {row['bound']:.0%}, "
            f"spread {row['spread']:.1%})"
        )
    return f"{text}  {row['verdict']}{'' if row['judged'] else ' (unjudged)'}"


def main(argv: list[str] | None = None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    reports = []
    for path in paths:
        with open(path) as handle:
            reports.append(json.load(handle))
    try:
        rows, regressed = compare(*reports, *load_contract())
    except ValueError as error:
        print(f"refused: {error}", file=sys.stderr)
        return 2
    for row in rows:
        print(format_row(row))
    counts = {}
    for row in rows:
        counts[row["verdict"]] = counts.get(row["verdict"], 0) + 1
    print(", ".join(f"{n} {v}" for v, n in sorted(counts.items())))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
