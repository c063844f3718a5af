"""The payload vocabulary (DESIGN.md §13): the boundary it draws, the
bindings that survive it, and the behaviours it makes uniform."""

import ast
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.api import Deployment, Engine, QuerySpec, Workload
from repro.api.spec import HOST_VOCABULARY, PROTOCOLS
from repro.network.messages import MessageKind
from repro.protocols.base import FilterProtocol
from repro.runtime.membership import (
    BELIEF_INSIDE,
    BELIEF_NONE,
    BELIEF_OUTSIDE,
)
from repro.runtime.replay import REPLAY_MODES, resolve_mode
from repro.runtime.session import ExecutionSession
from repro.runtime.vocabulary import Vocabulary, vocabulary_of
from repro.server.server import Server
from repro.server.sharded import ShardedServer, ShardedSpatialServer
from repro.server.transport import (
    SpatialTransportShardedServer,
    TransportShardedServer,
)
from repro.spatial.geometry import ALL_SPACE, EMPTY_REGION, BoxRegion
from repro.spatial.queries import SpatialKnnQuery
from repro.spatial.server import SpatialServer
from repro.spatial.vocabulary import SPATIAL
from repro.state.pools import SilencerPools
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
    hosted = {HOST_VOCABULARY[stack] for stack, _ in PROTOCOLS.values()}
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
# deploy_many lowers a bound on every vocabulary (DESIGN.md §15)
# ----------------------------------------------------------------------
class _BoxEverywhere(FilterProtocol):
    """Probe, then deploy one box with two silencers and stale/right/no
    beliefs — through ``deploy_many`` or as the ordered ``deploy`` loop
    the spatial lowering stands for."""

    name = "box-everywhere"
    BOX = BoxRegion([300.0, 300.0], [700.0, 700.0])

    def __init__(self, many: bool) -> None:
        self.many = many
        self.deliveries: list = []

    def initialize(self, server) -> None:
        points = server.probe_all()
        ids = server.stream_ids[::-1]  # batch order, not id order
        silenced = SilencerPools()
        silenced.reset([1], [2])
        belief = np.array(
            [
                (BELIEF_NONE, BELIEF_INSIDE, BELIEF_OUTSIDE)[i % 3]
                for i in ids
            ],
            dtype=np.int8,
        )
        if self.many:
            server.deploy_many(ids, self.BOX, belief, silenced)
            return
        regions = {1: ALL_SPACE, 2: EMPTY_REGION}
        for stream_id, code in zip(ids, belief.tolist()):
            server.deploy(
                stream_id,
                regions.get(stream_id, self.BOX),
                assumed_inside=None if code == BELIEF_NONE else bool(code),
            )
        assert len(points) == server.n_streams

    def on_update(self, server, stream_id, point, time) -> None:
        self.deliveries.append((stream_id, tuple(point), time))


def _box_everywhere(topology: str, many: bool) -> tuple:
    trace = MOVING.materialize()
    protocol = _BoxEverywhere(many)
    if topology == "parallel":
        with SpatialTransportShardedServer(trace, protocol, 2) as host:
            host.initialize(0.0)
            ledger, state = host.snapshot(), host.state
    else:
        shards = (2,) if topology == "sharded" else ()
        builder = "for_spatial_sharded" if shards else "for_spatial"
        session = getattr(ExecutionSession, builder)(trace, protocol, *shards)
        session.initialize(0.0)
        ledger, state = session.snapshot(), session.host.state
    return ledger, protocol.deliveries, state.containers.tolist()


@pytest.mark.parametrize("topology", ["single", "sharded", "parallel"])
def test_spatial_deploy_many_is_the_ordered_region_deploy_loop(topology):
    reference = _box_everywhere("single", many=False)
    ledger, deliveries, containers = _box_everywhere(topology, many=True)
    assert (ledger, deliveries, containers) == reference
    assert ledger.initialization[MessageKind.CONSTRAINT] == len(containers)
    assert containers[1] is ALL_SPACE and containers[2] is EMPTY_REGION
    # Stale beliefs self-corrected, in batch (descending id) order.
    corrected = [stream_id for stream_id, _, _ in deliveries]
    assert corrected and corrected == sorted(corrected, reverse=True)


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
    assert report.checker.violation_count == report.checks
    assert len(report.violations) == 101
    assert report.violations[-1] == f"... and {report.checks - 100} more"
    assert not report.tolerance_ok


# ----------------------------------------------------------------------
# Three replay modes
# ----------------------------------------------------------------------
def test_the_chunk_loop_mode_is_gone():
    assert REPLAY_MODES == ("auto", "event", "batch")
    with pytest.raises(ValueError, match="replay mode must be one of"):
        resolve_mode("batch-chunk", np.zeros(1), [], [])
