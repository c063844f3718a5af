"""The payload vocabulary (DESIGN.md §13): the boundary it draws, the
bindings that survive it, and the behaviours it makes uniform."""

import ast
from pathlib import Path

import pytest

import repro
from repro.api import Deployment, Engine, QuerySpec, Workload
from repro.api.spec import PROTOCOLS
from repro.runtime.replay import REPLAY_MODES
from repro.runtime.session import ExecutionSession
from repro.runtime.vocabulary import Vocabulary, vocabulary_of
from repro.server.server import Server
from repro.server.sharded import ShardedServer, ShardedSpatialServer
from repro.server.transport import (
    SpatialTransportShardedServer,
    TransportShardedServer,
)
from repro.spatial.queries import SpatialKnnQuery
from repro.spatial.server import SpatialServer
from repro.spatial.vocabulary import SPATIAL
from repro.streams.vocabulary import SCALAR
from repro.tolerance.rank_tolerance import RankTolerance

SRC = Path(repro.__file__).parent
MOVING = Workload.moving_objects(n_objects=30, horizon=60.0, seed=5)
KNN = SpatialKnnQuery((500.0, 500.0), 5)


# ----------------------------------------------------------------------
# The boundary
# ----------------------------------------------------------------------
def _imported_modules(path: Path) -> set[str]:
    """Every module named by an import statement anywhere in *path*
    (function-level imports included)."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
    return names


@pytest.mark.parametrize("package", ["server", "runtime"])
def test_shared_layers_import_nothing_from_the_spatial_package(package):
    """What a payload is, is known to the two vocabulary definitions
    and nowhere else: ``repro.server`` and ``repro.runtime`` reach the
    spatial stack by stack name only."""
    files = sorted((SRC / package).glob("*.py"))
    assert files
    offenders = {
        path.name: sorted(
            m for m in _imported_modules(path) if m.startswith("repro.spatial")
        )
        for path in files
    }
    assert {name: mods for name, mods in offenders.items() if mods} == {}


def test_exactly_two_vocabularies_keyed_by_query_spec_stack():
    assert vocabulary_of("streams") is SCALAR
    assert vocabulary_of("spatial") is SPATIAL
    # Every hosted protocol's QuerySpec.stack names one of the two.
    hosted = {stack for stack, builder in PROTOCOLS.values() if builder}
    assert hosted == {SCALAR.stack, SPATIAL.stack}
    assert isinstance(SCALAR, Vocabulary) and isinstance(SPATIAL, Vocabulary)
    with pytest.raises(LookupError, match="no payload vocabulary"):
        vocabulary_of("valuebased")


# ----------------------------------------------------------------------
# The surviving names are bindings, not code
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "binding,base",
    [
        (SpatialServer, Server),
        (ShardedSpatialServer, ShardedServer),
        (SpatialTransportShardedServer, TransportShardedServer),
    ],
)
def test_spatial_host_names_are_one_assignment_subclasses(binding, base):
    assert binding.__bases__ == (base,)
    own = {k for k in vars(binding) if k not in ("__module__", "__doc__")}
    assert own == {"stack"}
    assert binding.stack == SPATIAL.stack and base.stack == SCALAR.stack
    assert base.speaking("spatial") is binding
    assert base.speaking("streams") is base


def test_session_builders_bind_the_one_assembler():
    trace = MOVING.materialize()
    protocol = QuerySpec("zt-rp-2d", KNN).build
    single = ExecutionSession.for_spatial(trace, protocol())
    sharded = ExecutionSession.for_spatial_sharded(trace, protocol(), 3)
    assert type(single.host) is SpatialServer
    assert type(sharded.host) is ShardedSpatialServer
    assert single.vocabulary is sharded.vocabulary is SPATIAL
    assert single.host.vocabulary is SPATIAL
    assert len(sharded.channels) == 3 and single.channels == [single.channel]


# ----------------------------------------------------------------------
# One uniform rejection of interval bulk ops on a non-interval vocabulary
# ----------------------------------------------------------------------
def _spatial_hosts():
    trace = MOVING.materialize()
    build = QuerySpec("rtp-2d", KNN, RankTolerance(k=5, r=2)).build
    return {
        "single()": ExecutionSession.for_spatial(trace, build()).host,
        "sharded(2)": ExecutionSession.for_spatial_sharded(
            trace, build(), 2
        ).host,
        "sharded(2, parallel=True)": SpatialTransportShardedServer(
            trace, build(), 2
        ),
    }


def test_interval_bulk_ops_raise_one_type_error_on_every_spatial_topology():
    messages = set()
    for host in _spatial_hosts().values():
        for call in (
            lambda: host.broadcast(0.0, 1.0),
            lambda: host.deploy_many([0, 1], 0.0, 1.0),
        ):
            with pytest.raises(TypeError, match="per-stream regions") as info:
                call()
            messages.add(str(info.value))
    assert len(messages) == 1


# ----------------------------------------------------------------------
# One report conversion: spatial reports no longer truncate silently
# ----------------------------------------------------------------------
def test_spatial_report_marks_violations_beyond_the_detail_cap():
    """ZT-RP-2d answers with k=5 streams; a rank tolerance demanding
    exactly 3 is breached at every check.  The checker keeps 100
    detailed records — the report must say how many more there were."""
    spec = QuerySpec("zt-rp-2d", KNN, RankTolerance(k=3, r=1))
    workload = Workload.moving_objects(n_objects=30, horizon=200.0, seed=5)
    report = Engine().run(spec, workload, Deployment.single(check_every=1))
    assert report.checks > 250
    assert report.raw.checker.violation_count == report.checks
    assert len(report.violations) == 101
    assert report.violations[-1] == f"... and {report.checks - 100} more"
    assert not report.tolerance_ok


# ----------------------------------------------------------------------
# Three replay modes
# ----------------------------------------------------------------------
def test_the_chunk_loop_mode_is_gone():
    assert REPLAY_MODES == ("auto", "event", "batch")
    with pytest.raises(ValueError, match="replay_mode must be one of"):
        Deployment(replay_mode="batch-chunk")
