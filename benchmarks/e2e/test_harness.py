"""Self-tests of the bench_e2e harness (not of the library).

Run explicitly — tier-1 ``testpaths`` does not collect this directory:

    PYTHONPATH=src python -m pytest -q benchmarks/e2e/test_harness.py

Everything here runs at ``--smoke`` scale (horizons / 20) and finishes
in well under 30 s.
"""

from __future__ import annotations

import argparse
import importlib
import json
import subprocess

import pytest

from benchmarks.e2e import REPO_ROOT
from benchmarks.e2e import cli
from benchmarks.e2e.cli import RUN_SECONDS
from benchmarks.e2e.compare import compare, verdict
from benchmarks.e2e.measure import measure
from benchmarks.e2e.metrics import END_TO_END, PER_LAYER, ledger_counts
from benchmarks.e2e.tracing import ENTRY_POINTS, Tracer
from benchmarks.e2e.workloads import BY_NAME, WORKLOADS


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _raw_attributes() -> dict:
    """The class/module attribute behind every resolvable table row."""
    found = {}
    for (module_name, class_name), attrs in ENTRY_POINTS.items():
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        for attr in attrs:
            if attr in vars(owner):
                found[(module_name, class_name, attr)] = vars(owner)[attr]
    return found


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def test_self_time_is_span_minus_children_on_a_nested_trace():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.now += 1.0

    leaf = tracer.wrap("leaf", leaf)

    def middle():
        clock.now += 0.5
        leaf()
        leaf()
        clock.now += 0.25

    middle = tracer.wrap("middle", middle)

    def root():
        clock.now += 2.0
        middle()
        leaf()

    tracer.wrap("root", root)()

    assert tracer.calls("leaf") == 3
    assert tracer.total_s("leaf") == tracer.self_s("leaf") == 3.0
    assert tracer.total_s("middle") == 2.75
    assert tracer.self_s("middle") == 0.75
    assert tracer.total_s("root") == 5.75
    assert tracer.self_s("root") == 2.0
    # Self times partition the root span.
    assert sum(t[2] for t in tracer.totals.values()) == tracer.total_s("root")
    # Spans carry (name, start, end, parent index).
    assert tracer.spans[0] == ["root", 0.0, 5.75, -1]
    assert tracer.spans[1] == ["middle", 2.0, 4.75, 0]
    assert [s[3] for s in tracer.spans] == [-1, 0, 1, 1, 0]


def test_recursion_and_exceptions_keep_the_stack_consistent():
    clock = FakeClock()
    tracer = Tracer(clock=clock, span_cap=2)

    def countdown(n):
        clock.now += 1.0
        if n == 0:
            raise RuntimeError("bottom")
        traced(n - 1)

    traced = tracer.wrap("down", countdown)
    with pytest.raises(RuntimeError):
        traced(3)
    assert tracer.calls("down") == 4
    assert tracer.self_s("down") == 4.0
    assert tracer.total_s("down") == 4.0 + 3.0 + 2.0 + 1.0
    assert len(tracer.spans) == 2 and tracer.spans_dropped == 2
    assert tracer._stack == []


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------
def test_every_wrapped_attribute_is_restored_even_when_the_run_raises():
    from repro.api import Engine, Workload

    before = _raw_attributes()
    assert len(before) > 40
    defn = BY_NAME["topk_reinit"]
    protocol_class = type(defn.spec.build())
    protocol_before = vars(protocol_class)["on_update"]

    tracer = Tracer()
    with pytest.raises(AttributeError):
        with tracer.install(protocol_class=protocol_class):
            assert vars(protocol_class)["on_update"] is not protocol_before
            assert _raw_attributes() != before
            Engine().run(defn.spec, Workload.from_trace(object()))
    assert tracer.calls("api.run") == 1  # the failing call was a span
    after = _raw_attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert vars(protocol_class)["on_update"] is protocol_before
    assert tracer.missing == []


def test_a_missing_entry_point_is_reported_not_raised():
    tracer = Tracer()
    table = {
        ("repro.no_such_module", "Nope"): {"run": "x.gone"},
        ("repro.api.engine", "Engine"): {"no_such_method": "x.gone", "run": "api.run"},
    }
    with tracer.install(entry_points=table):
        pass
    assert len(tracer.missing) == 2


# ----------------------------------------------------------------------
# Traced vs untraced runs, every workload, smoke scale
# ----------------------------------------------------------------------
def test_traced_run_reproduces_the_untraced_ledger():
    from repro.api import Engine

    defn = BY_NAME["topk_reinit"]
    workload = defn.workload(0, smoke=True)
    plain = Engine().run(defn.spec, workload, defn.deployment(""))
    tracer = Tracer()
    with tracer.install(protocol_class=type(defn.spec.build())):
        traced = Engine().run(defn.spec, workload, defn.deployment(""))
    assert ledger_counts(traced.ledger) == ledger_counts(plain.ledger)
    assert traced.final_answer == plain.final_answer
    # One deploy span, one table write and one send per constraint.
    constraints = sum(
        phase.get("constraint", 0) for phase in ledger_counts(plain.ledger).values()
    )
    assert tracer.calls("server.deploy") == constraints
    assert tracer.calls("state.record_deploy") == constraints
    assert tracer.calls("network.send") == plain.ledger.total
    assert tracer.self_s("api.run") < 0.1 * tracer.total_s("api.run")


@pytest.mark.parametrize("defn", WORKLOADS, ids=lambda d: d.name)
def test_per_layer_mode_on_every_workload(defn):
    # measure() fails any run whose outputs differ from the warm-up's,
    # traced runs included; sibling identities and resume_run are checked.
    out = measure(defn, seed=0, seconds=0.2, trace=True, smoke=True)
    assert out.failures == []
    assert out.attempted >= 5 and out.traced_walls
    assert list(out.metrics) == [name for name, _, _ in PER_LAYER]
    assert out.metrics["api.run_s"]["value"] > 0
    assert out.metrics["trace.overhead_ratio"]["value"] > 0
    assert out.missing_entry_points == []
    assert len(out.siblings) == len(defn.siblings)
    assert all(row["ledger_identical"] for row in out.siblings)
    if defn.check_resume:
        assert out.metrics["durability.resume_s"]["value"] > 0


def test_end_to_end_mode_reports_exactly_the_contract_metrics():
    out = measure(BY_NAME["range_checked_latency"], 3, 0.2, trace=False, smoke=True)
    assert out.failures == []
    assert list(out.metrics) == [name for name, _, _ in END_TO_END]
    assert all(entry["value"] > 0 for entry in out.metrics.values())
    assert out.result()["correct"] and out.result()["failed"] == 0
    assert len(out.setup) == 5


# ----------------------------------------------------------------------
# Report mode
# ----------------------------------------------------------------------
def _times_out(command, timeout, **kwargs):
    raise subprocess.TimeoutExpired(command, timeout)


def _writes_nothing(command, **kwargs):
    return subprocess.CompletedProcess(command, 1)


@pytest.mark.parametrize("child", [_times_out, _writes_nothing])
def test_report_counts_a_dead_child_as_a_failed_attempt(child, monkeypatch, capsys):
    monkeypatch.setattr(cli, "host_record", dict)
    monkeypatch.setattr(cli.subprocess, "run", child)
    args = argparse.Namespace(seed=0, seconds=0.2, smoke=True, json=None)
    assert cli._report(["topk_reinit", "range_filter"], args) == 1
    printed = capsys.readouterr().out
    assert printed.count("2 attempted, 2 failed") == 2


# ----------------------------------------------------------------------
# BENCHMARK.json agrees with the tables
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_metric_and_workload_tables():
    with open(REPO_ROOT / "BENCHMARK.json") as handle:
        contract = json.load(handle)
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }  # fmt: skip
    assert contract["paths"] == ["benchmarks/e2e"]
    assert contract["run_seconds"] == RUN_SECONDS
    assert [
        (row["name"], row["unit"], row["better"]) for row in contract["end_to_end"]
    ] == list(END_TO_END)
    assert [
        (row["name"], row["unit"], row["better"]) for row in contract["per_layer"]
    ] == list(PER_LAYER)
    assert all(0 < row["bound"] <= 0.25 for row in contract["end_to_end"])
    judged = [row["name"] for row in contract["workloads"]]
    assert set(judged) <= set(BY_NAME)
    for row in contract["workloads"]:
        assert row["why"] == BY_NAME[row["name"]].why and len(row["why"]) <= 200


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def test_verdicts():
    tight = [1.0, 1.01, 0.99, 1.0]
    assert verdict(1.0, 1.05, "lower", 0.10, tight, tight)[0] == "within"
    assert verdict(1.0, 1.20, "lower", 0.10, tight, tight)[0] == "worse"
    assert verdict(1.0, 0.80, "lower", 0.10, tight, tight)[0] == "better"
    assert verdict(100.0, 80.0, "higher", 0.10, tight, tight)[0] == "worse"
    assert verdict(100.0, 120.0, "higher", 0.10, tight, tight)[0] == "better"
    noisy = [1.0, 1.4, 0.7, 1.2]
    assert verdict(1.0, 1.05, "lower", 0.10, noisy, noisy)[0] == "unresolved"
    assert verdict(1.0, 1.30, "lower", 0.10, noisy, noisy)[0] == "unresolved"
    # Wide spread, but every B sample beats every A sample.
    assert verdict(1.0, 0.5, "lower", 0.10, noisy, [0.5, 0.6, 0.4])[0] == "better"
    assert verdict(1.0, 2.0, "lower", 0.10, noisy, [2.0, 1.9, 2.4])[0] == "worse"


def _report(items_per_s, samples, maintenance=100, calls=7, failed_share=0.0):
    return {
        "smoke": False,
        "workloads": {
            "w": {
                "failed_share": failed_share,
                "end_to_end": {
                    "items_per_s": {"value": items_per_s, "unit": "items/s"}
                },
                "end_to_end_samples": {"items_per_s": samples},
                "per_layer": {
                    "network.ledger.maintenance": {
                        "value": maintenance, "unit": "count",
                    },
                    "server.deploy_calls": {"value": calls, "unit": "count"},
                    "api.run_s": {"value": 1.0, "unit": "s"},
                },
            }
        },
    }  # fmt: skip


def test_compare_rows_and_exit_conditions():
    contract = {"items_per_s": {"better": "higher", "bound": 0.1}}
    base = _report(100.0, [100.0, 101.0, 99.0])

    rows, regressed = compare(base, _report(103.0, [103.0, 104.0, 102.0]), contract)
    assert [row["verdict"] for row in rows] == ["within"] and not regressed

    rows, regressed = compare(base, _report(80.0, [80.0, 81.0, 79.0]), contract)
    assert rows[0]["verdict"] == "worse" and regressed

    # A moved ledger is a regression; another moved count is only listed.
    rows, regressed = compare(
        base, _report(100.0, [100.0, 100.5, 99.5], maintenance=101, calls=8), contract
    )
    assert {row["metric"]: row["verdict"] for row in rows} == {
        "items_per_s": "within",
        "network.ledger.maintenance": "worse",
        "server.deploy_calls": "changed",
    }
    assert regressed

    worse = _report(100.0, [100.0, 100.5, 99.5], failed_share=0.2)
    rows, regressed = compare(base, worse, contract)
    assert rows[-1]["metric"] == "failed_share" and regressed
    # The same regression on a workload BENCHMARK.json does not list.
    rows, regressed = compare(base, worse, contract, judged={"other"})
    assert rows[-1]["verdict"] == "worse" and not regressed


def test_compare_refuses_smoke_reports():
    smoke = _report(100.0, [100.0])
    smoke["smoke"] = True
    with pytest.raises(ValueError, match="smoke"):
        compare(_report(100.0, [100.0]), smoke, {})
