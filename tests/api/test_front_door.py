"""One front door (DESIGN.md §16): ``Engine`` is the only way in,
``Deployment`` the only knob object, ``RunReport`` the only result of a
hosted run — and a spec the engine cannot run on a workload is refused
up front, by name, before anything is built."""

import ast
import dataclasses
import functools
import inspect
import os
import pathlib
import re
import subprocess
import sys

import pytest

import repro
import repro.api
from repro.api import Deployment, Engine, QuerySpec, Workload
from repro.experiments import FIGURES, evaluate
from repro.protocols.zt_nrp import ZeroToleranceRangeProtocol
from repro.queries.knn import TopKQuery
from repro.queries.range_query import RangeQuery
from repro.spatial.queries import SpatialKnnQuery
from repro.tolerance.rank_tolerance import RankTolerance

ROOT = pathlib.Path(repro.__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"

SCALAR = Workload.synthetic(n_streams=30, horizon=30.0, seed=1)
MOVING = Workload.moving_objects(n_objects=20, horizon=20.0, seed=1)
KNN_2D = QuerySpec(
    "rtp-2d", SpatialKnnQuery((500.0, 500.0), 3), RankTolerance(k=3, r=1)
)
RANGE = QuerySpec("zt-nrp", RangeQuery(400.0, 600.0))
VALUE_EPS = QuerySpec("value-eps", TopKQuery(k=3), options={"eps": 5.0})


# ----------------------------------------------------------------------
# The door opens from a cold interpreter
# ----------------------------------------------------------------------
_COLD_START = """
import repro
from repro.spatial.queries import SpatialKnnQuery

range_spec = repro.QuerySpec("zt-nrp", repro.RangeQuery(400.0, 600.0))
scalar = repro.Workload.synthetic(n_streams=40, horizon=40.0, seed=1)
for deployment in (
    repro.Deployment.single(check_every=1),
    repro.Deployment.sharded(2),
    repro.Deployment.sharded(2, parallel=True),
):
    assert repro.Engine().run(range_spec, scalar, deployment).tolerance_ok
assert repro.Engine().run_queries({"q": range_spec}, scalar).tolerance_ok
knn = repro.QuerySpec(
    "rtp-2d", SpatialKnnQuery((500.0, 500.0), 3), repro.RankTolerance(k=3, r=1)
)
moving = repro.Workload.moving_objects(n_objects=20, horizon=20.0, seed=1)
assert repro.Engine().run(knn, moving, repro.Deployment.sharded(2)).n_records
"""


def test_the_package_root_alone_is_enough_to_run():
    """Nothing but ``import repro`` (plus the spatial query a ``-2d``
    spec names) has to be imported first: the slim namespace no longer
    pulls in ``repro.server``, which used to register the scalar payload
    vocabulary as a side effect."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(
        [sys.executable, "-c", _COLD_START], check=True, env=env, timeout=120
    )


# ----------------------------------------------------------------------
# Up-front refusals
# ----------------------------------------------------------------------
@pytest.fixture
def nothing_is_built(monkeypatch):
    """Fail the test if the engine builds a protocol before refusing."""

    def build(self):
        raise AssertionError(f"built {self.protocol!r} before refusing")

    monkeypatch.setattr(QuerySpec, "build", build)


@pytest.mark.parametrize(
    "spec, stack", [(KNN_2D, "spatial"), (VALUE_EPS, "valuebased")]
)
def test_run_queries_refuses_a_non_scalar_spec(spec, stack, nothing_is_built):
    with pytest.raises(ValueError) as refusal:
        Engine().run_queries({"a": spec, "b": RANGE}, SCALAR)
    message = str(refusal.value)
    assert "query 'a'" in message
    assert repr(spec.protocol) in message and repr(stack) in message


@pytest.mark.parametrize(
    "spec, workload, kind",
    [
        (RANGE, MOVING, "moving_objects"),
        (VALUE_EPS, MOVING, "moving_objects"),
        (KNN_2D, SCALAR, "synthetic"),
    ],
)
def test_run_refuses_a_workload_of_the_wrong_kind(
    spec, workload, kind, nothing_is_built
):
    with pytest.raises(ValueError) as refusal:
        Engine().run(spec, workload)
    message = str(refusal.value)
    assert repr(spec.protocol) in message and repr(spec.stack) in message
    assert repr(kind) in message
    assert type(workload.materialize()).__name__ in message


def test_every_entry_refuses_the_wrong_kind(nothing_is_built):
    with pytest.raises(ValueError, match="'multiquery' stack.*SpatialTrace"):
        Engine().run_queries({"a": RANGE}, MOVING)
    with pytest.raises(ValueError, match="'ZT-NRP'.*'streams' stack"):
        Engine().run_protocol(
            MOVING.materialize(), ZeroToleranceRangeProtocol(RANGE.query)
        )


def test_the_engine_has_one_rejection_site():
    """Every ``raise`` in ``api/engine.py`` sits in
    ``_refuse_unsupported`` (a checked run without a query is the
    checker's to refuse)."""
    tree = ast.parse((SRC / "api" / "engine.py").read_text())
    raising = {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and any(isinstance(inner, ast.Raise) for inner in ast.walk(node))
    }
    assert raising == {"_refuse_unsupported"}


# ----------------------------------------------------------------------
# The deleted layer stays deleted
# ----------------------------------------------------------------------
def test_no_module_under_src_mentions_the_deleted_layer():
    banned = {"DeprecationWarning", "RunConfig", "RunResult"}
    for path in SRC.rglob("*.py"):
        # Every word of the file: code, docstrings and comments alike.
        mentioned = banned & set(re.findall(r"\w+", path.read_text()))
        assert not mentioned, (path, mentioned)
    for gone in ("runner", "sweep", "config", "results"):
        assert not (SRC / "harness" / f"{gone}.py").exists(), gone
    assert not hasattr(Engine, "_report_from_run_result")


def test_the_top_level_namespace_is_the_facade():
    for name in repro.__all__:
        assert hasattr(repro, name), name
    assert set(repro.api.__all__) <= set(repro.__all__)
    assert len(repro.__all__) <= 36
    # What benchmarks/e2e/workloads.py imports from the package root.
    assert {
        "FractionTolerance",
        "RangeQuery",
        "RankTolerance",
        "TopKQuery",
        "UniformLatency",
    } <= set(repro.__all__)


def test_deployment_is_the_only_knob_object():
    assert [field.name for field in dataclasses.fields(Deployment)] == [
        "topology",
        "n_shards",
        "check_every",
        "strict",
        "parallel",
        "latency",
        "durable",
    ]
    with pytest.raises(TypeError, match="max_workers"):
        Deployment.sharded(2, parallel=True, max_workers=1)


def test_the_engine_picks_the_replay_strategy(capsys):
    """How a run replays is no knob: neither the deployment nor the
    experiments CLI takes a replay mode."""
    from repro.experiments.__main__ import main

    with pytest.raises(TypeError, match="replay_mode"):
        Deployment.single(replay_mode="event")
    with pytest.raises(SystemExit) as exit_info:
        main(["figure09", "--replay", "batch"])
    assert exit_info.value.code == 2
    assert "--replay" in capsys.readouterr().err


@pytest.mark.parametrize(
    "entry",
    [
        "repro.api.spec:Deployment",
        "repro.valuebased.protocol:ValueToleranceTopKProtocol",
        "repro.multiquery:QueryGroup",
        "repro.server.transport:TransportShardedServer",
        "repro.server.transport:ShardWorker",
    ],
)
def test_no_entry_point_takes_a_replay_mode(entry):
    """Above ``ExecutionSession.replay`` nothing can force a strategy."""
    import importlib

    module, name = entry.split(":")
    target = getattr(importlib.import_module(module), name)
    assert "replay_mode" not in inspect.signature(target).parameters


@pytest.mark.parametrize("name", list(FIGURES))
def test_figure_runners_take_one_deployment(name):
    runner = functools.partial(evaluate, name)
    assert list(inspect.signature(runner).parameters) == [
        "profile",
        "seed",
        "deployment",
    ]


def test_hosted_runs_carry_the_checker_report_and_no_raw():
    report = Engine().run(RANGE, SCALAR, Deployment.single(check_every=4))
    assert "raw" not in {field.name for field in dataclasses.fields(report)}
    assert report.checker.checks == report.checks > 0
    shared = Engine().run_queries(
        {"a": RANGE, "b": RANGE}, SCALAR, Deployment.single(check_every=4)
    )
    assert shared.checker.checks == shared.checks == report.checks
    assert Engine().run(RANGE, SCALAR).checker is None


def test_versions_agree():
    declared = re.search(
        r'^version = "([^"]+)"$',
        (ROOT / "pyproject.toml").read_text(),
        flags=re.M,
    ).group(1)
    assert repro.__version__ == declared == "2.0.0"
