"""Dimension is data: one protocol family serves both stacks.

Each of the six algorithms is written once, against a bound value
(DESIGN.md §15); ``name`` and ``name-2d`` build the *same class* and
differ only in the stack that hosts it.  The specification of that claim
is the d=1 differential below: a scalar spec over a synthetic trace and
its ``-2d`` twin over the trace's ``(n, 1)``-point lift — an interval is
a 1-box, ``[q - t, q + t]`` a 1-ball — must produce the same ledger and
the same final answer, on one server and on two shards.
"""

import pytest

from repro.api import Deployment, Engine, QuerySpec, Workload
from repro.network.messages import MessageKind
from repro.queries.knn import KnnQuery
from repro.queries.range_query import RangeQuery
from repro.spatial.geometry import BoxRegion
from repro.spatial.queries import SpatialKnnQuery, SpatialRangeQuery
from repro.spatial.trace import SpatialTrace
from repro.tolerance.fraction_tolerance import FractionTolerance
from repro.tolerance.rank_tolerance import RankTolerance
from replay_forcing import run_forced

RANGE = (
    RangeQuery(400.0, 600.0),
    SpatialRangeQuery(BoxRegion([400.0], [600.0])),
)
KNN = (KnnQuery(500.0, 5), SpatialKnnQuery([500.0], 5))
FRACTION = FractionTolerance(0.2, 0.2)

#: name -> ((scalar query, its d=1 lift), tolerance)
FAMILY = {
    "no-filter": (RANGE, None),
    "zt-nrp": (RANGE, None),
    "ft-nrp": (RANGE, FRACTION),
    "rtp": (KNN, RankTolerance(k=5, r=3)),
    "zt-rp": (KNN, None),
    "ft-rp": (KNN, FRACTION),
}

DEPLOYMENTS = {"single": Deployment.single(), "sharded": Deployment.sharded(2)}


def _lift(trace) -> SpatialTrace:
    """The same records as ``(n, 1)`` / ``(m, 1)`` point matrices."""
    return SpatialTrace(
        initial_points=trace.initial_values[:, None],
        times=trace.times,
        stream_ids=trace.stream_ids,
        points=trace.values[:, None],
        horizon=trace.horizon,
    )


@pytest.mark.parametrize("topology", sorted(DEPLOYMENTS))
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(FAMILY))
def test_a_2d_spec_on_the_d1_lift_is_the_scalar_spec(name, seed, topology):
    (scalar_query, lifted_query), tolerance = FAMILY[name]
    workload = Workload.synthetic(
        n_streams=80, horizon=60.0, sigma=60.0, seed=seed
    )
    deployment = DEPLOYMENTS[topology]
    engine = Engine()
    scalar = engine.run(
        QuerySpec(name, scalar_query, tolerance), workload, deployment
    )
    lifted = engine.run(
        QuerySpec(name + "-2d", lifted_query, tolerance),
        Workload.from_trace(_lift(workload.materialize())),
        deployment,
    )
    assert scalar.ledger.maintenance_total > 0
    assert lifted.ledger == scalar.ledger
    assert lifted.final_answer == scalar.final_answer
    assert lifted.protocol == scalar.protocol + "-2d"


@pytest.mark.parametrize("name", sorted(FAMILY))
def test_both_names_build_the_same_class(name):
    (scalar_query, lifted_query), tolerance = FAMILY[name]
    scalar = QuerySpec(name, scalar_query, tolerance)
    lifted = QuerySpec(name + "-2d", lifted_query, tolerance)
    assert type(scalar.build()) is type(lifted.build())
    assert (scalar.stack, lifted.stack) == ("streams", "spatial")


# ----------------------------------------------------------------------
# What stays stack-dependent: how a deploy_many travels, which replay
# strategy and which parallel router a host may use
# ----------------------------------------------------------------------
@pytest.fixture
def deploy_spans(monkeypatch):
    """Counts columnar installs and per-message ``Server.deploy`` calls."""
    from repro.server.server import Server
    from repro.streams import control

    spans = {"install": [], "deploy": []}
    install, deploy = control.install_constraints, Server.deploy

    def counted_install(channel, table, ids, constraint, belief, time):
        done = install(channel, table, ids, constraint, belief, time)
        if done:
            spans["install"].append([str(column.dtype) for column in constraint])
        return done

    def counted_deploy(self, stream_id, *constraint, **belief):
        spans["deploy"].append(stream_id)
        return deploy(self, stream_id, *constraint, **belief)

    monkeypatch.setattr(control, "install_constraints", counted_install)
    monkeypatch.setattr(Server, "deploy", counted_deploy)
    return spans


def _constraints(report) -> int:
    """Constraint messages of the whole run."""
    ledger = report.ledger
    return sum(
        phase.get(MessageKind.CONSTRAINT, 0)
        for phase in (ledger.initialization, ledger.maintenance)
    )


def test_a_scalar_population_deploy_is_one_columnar_install(deploy_spans):
    n = 1000
    report = Engine().run(
        QuerySpec("rtp", KnnQuery(500.0, 10), RankTolerance(k=10, r=5)),
        Workload.synthetic(n_streams=n, horizon=20.0, sigma=60.0, seed=1),
    )
    constraints = _constraints(report)
    assert constraints > n  # at least one re-deploy beside the first
    # One install_constraints call of float64 columns per bound deployed,
    # not one Server.deploy per message.
    assert len(deploy_spans["install"]) == constraints // n
    assert set(map(tuple, deploy_spans["install"])) == {("float64", "float64")}
    assert deploy_spans["deploy"] == []


def test_a_spatial_population_deploy_is_the_ordered_deploy_loop(deploy_spans):
    n = 200
    report = Engine().run(
        QuerySpec(
            "rtp-2d",
            SpatialKnnQuery([500.0, 500.0], 10),
            RankTolerance(k=10, r=5),
        ),
        Workload.moving_objects(n_objects=n, horizon=40.0, sigma=60.0, seed=1),
    )
    constraints = _constraints(report)
    assert constraints > n
    # One Server.deploy span per message, each bound in ascending ids.
    assert deploy_spans["install"] == []
    assert deploy_spans["deploy"] == list(range(n)) * (constraints // n)


def test_2d_specs_keep_their_routing():
    """ZT-NRP declares decomposable / columnar maintenance on any host;
    what may *use* the flags is decided host-side, and a ``-2d`` spec
    qualifies for neither: point payloads never replay columnar, and
    ``parallel=True`` runs the shard transport, not the scalar fan-out."""
    spec = QuerySpec(
        "zt-nrp-2d", SpatialRangeQuery(BoxRegion([300.0] * 2, [700.0] * 2))
    )
    protocol = spec.build()
    assert protocol.decomposable_maintenance and protocol.columnar_maintenance
    workload = Workload.moving_objects(n_objects=100, horizon=100.0, seed=1)
    single = run_forced(
        "batch", lambda: Engine().run(spec, workload, Deployment.single())
    )
    assert single.extras["replay"]["kernel"] == "run"
    parallel = Engine().run(
        spec, workload, Deployment.sharded(2, parallel=True)
    )
    assert parallel.extras["replay"]["kernel"] == "transport"
    assert parallel.ledger == single.ledger
