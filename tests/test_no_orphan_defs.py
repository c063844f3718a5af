"""Every def earns a caller in ``src/``, or a listed reason (ROADMAP 18(a)).

An *orphan* is a def or class under ``src/`` whose name occurs nowhere
else in ``src/`` — no call, attribute, import, string or docstring
mention beyond its own definitions — and that no package ``__all__``
exports: only tests or benchmarks reach it, or nothing does.  Each
orphan present is in :data:`ALLOWED` with the reason it stays.  A new
orphan fails this test until it gets a caller, is deleted or is listed
with a reason; an entry that is no longer an orphan fails it until it
leaves the list, so the list only shrinks.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: Orphan name -> why it stays.
ALLOWED = {
    "answer_assign_rows": "pinned by test_running_counts.py (ROADMAP item 4)",
    "churn_rate": "trace statistic of the public analysis module; tests/analysis reads it",
    "crossing_rate": "trace statistic of the public analysis module; tests/analysis reads it",
    "flush_planes": "memmap plane flush beside the durability path; test_mmap_planes.py calls it",
    "for_spatial": "reached by getattr in the hosted executor (for_<vocabulary>); a span in benchmarks/e2e/tracing.py",
    "for_spatial_sharded": "reached by getattr in the hosted executor (for_<vocabulary>_sharded); a span in benchmarks/e2e/tracing.py",
    "initialization_messages": "RunReport metric, public API; benchmarks/e2e/metrics.py reads it",
    "is_correct": "predicate of the public RankTolerance",
    "is_satisfied": "predicate of the public FractionTolerance",
    "is_zero": "predicate of the public FractionTolerance",
    "latency_clean": "CheckerReport verdict, public API; test_staleness.py reads it",
    "record_deploy": "named by benchmarks/e2e/tracing.py (_STATE), which wraps it in a span",
    "run_protocol": "Engine.run_protocol, the public escape hatch for built protocols",
    "total_messages": "RunReport metric, public API",
    "violation_rate": "CheckerReport metric benchmarks/bench_latency.py reads",
}

#: A new entry raises this ceiling in the same change, with its reason
#: in CHANGES.md (ROADMAP 18(c)).
CEILING = 15


def _orphans() -> set[str]:
    texts = [path.read_text() for path in sorted(SRC.rglob("*.py"))]
    defined: Counter = Counter()
    exported: set[str] = set()
    for text in texts:
        for node in ast.walk(ast.parse(text)):
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                defined[node.name] += 1
            elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets
            ):
                exported.update(ast.literal_eval(node.value))
    words = Counter(
        word
        for text in texts
        for word in re.findall(r"[A-Za-z_][A-Za-z0-9_]*", text)
    )
    return {
        name
        for name, count in defined.items()
        if not (name.startswith("__") and name.endswith("__"))
        and name not in exported
        and words[name] == count
    }


def test_every_orphan_def_is_listed_with_a_reason():
    unlisted = sorted(_orphans() - ALLOWED.keys())
    assert unlisted == [], (
        f"defs with no caller in src/: {unlisted}; give them one, delete "
        "them, or list them in ALLOWED with a reason"
    )


def test_the_allowlist_only_holds_orphans():
    stale = sorted(ALLOWED.keys() - _orphans())
    assert stale == [], f"no longer orphans, drop them from ALLOWED: {stale}"
    assert all(reason.strip() for reason in ALLOWED.values())
    assert len(ALLOWED) <= CEILING, (
        f"{len(ALLOWED)} allowlisted orphans, ceiling {CEILING}"
    )
