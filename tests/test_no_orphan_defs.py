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
    "MeanRevertingWalk": "a value process no workload selects; the generator tests draw it",
    "_fn_pool": "FT-NRP / FT-RP pool introspection for the protocol tests",
    "_fp_pool": "FT-NRP / FT-RP pool introspection for the protocol tests",
    "add_tap": "the channel's message tap, how tests observe traffic",
    "answer_assign_rows": "pinned by test_running_counts.py (ROADMAP item 4)",
    "assign": "the one-row view's write, driven by test_wal_frontier.py",
    "bounds_of": "state-table accessor only the state tests read",
    "churn_rate": "analysis helper reached only from tests/analysis",
    "crossing_rate": "analysis helper reached only from tests/analysis",
    "delivered_count": "latency-channel introspection for the latency tests",
    "events_processed": "simulation-engine counter only tests/sim reads",
    "flush_planes": "memmap plane flush only test_mmap_planes.py calls",
    "for_spatial": "reached by getattr in the hosted executor (for_<vocabulary>)",
    "for_spatial_sharded": "reached by getattr in the hosted executor (for_<vocabulary>_sharded)",
    "initialization_messages": "RunReport metric, public API",
    "is_correct": "predicate of the public RankTolerance",
    "is_satisfied": "predicate of the public FractionTolerance",
    "is_zero": "predicate of the public FractionTolerance",
    "lagging_streams": "staleness-window introspection for test_staleness.py",
    "latency_clean": "CheckerReport verdict read by test_staleness.py",
    "merge_traces": "trace utility only the stream tests call",
    "next_delivery_time": "latency-channel introspection for the latency tests",
    "push_fp": "pool write only test_pools.py calls",
    "record_deploy": "named by benchmarks/e2e/tracing.py, which wraps it in a span",
    "remove_listener": "state-table listener removal only test_table.py calls",
    "remove_tap": "the channel tap's removal, called by test_channel.py",
    "run_protocol": "Engine.run_protocol, the public escape hatch for built protocols",
    "schedule_after": "simulation-engine API only tests/sim calls",
    "silencer_of": "state-table accessor only the state tests read",
    "total_messages": "RunReport metric, public API",
    "truncate": "trace API only tests call",
    "value_at": "trace API only tests call",
    "violated_by": "filter / region predicate only tests call",
    "violation_rate": "CheckerReport metric the latency benchmarks read",
}


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
