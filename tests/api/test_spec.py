"""Validation and value-semantics of the declarative vocabulary."""

import pytest

from repro.api import Deployment, QuerySpec, Workload
from repro.queries.knn import TopKQuery
from repro.queries.range_query import RangeQuery
from repro.tolerance.fraction_tolerance import FractionTolerance
from repro.tolerance.rank_tolerance import RankTolerance


# ----------------------------------------------------------------------
# QuerySpec
# ----------------------------------------------------------------------
def test_query_spec_rejects_unknown_protocol():
    with pytest.raises(ValueError, match="unknown protocol"):
        QuerySpec(protocol="nope", query=RangeQuery(0.0, 1.0))


def test_query_spec_normalizes_protocol_case():
    spec = QuerySpec(protocol="ZT-NRP", query=RangeQuery(0.0, 1.0))
    assert spec.protocol == "zt-nrp"
    assert spec.stack == "streams"


def test_query_spec_requires_query():
    with pytest.raises(ValueError, match="requires a query"):
        QuerySpec(protocol="zt-nrp", query=None)


def test_query_spec_tolerance_required_for_tolerant_protocols():
    spec = QuerySpec(protocol="rtp", query=TopKQuery(k=3))
    with pytest.raises(ValueError, match="requires a tolerance"):
        spec.build()


RANGE = RangeQuery(400.0, 600.0)


@pytest.mark.parametrize(
    "protocol, query, tolerance, expected",
    [
        ("ft-nrp", RANGE, 150.0, "FractionTolerance"),
        ("ft-nrp-2d", RANGE, RankTolerance(3, 1), "FractionTolerance"),
        ("ft-rp", TopKQuery(k=3), 0.2, "FractionTolerance"),
        ("rtp", TopKQuery(k=3), FractionTolerance(0.2, 0.2), "RankTolerance"),
    ],
)
def test_a_tolerance_of_the_wrong_class_is_a_type_error(
    protocol, query, tolerance, expected
):
    """At spec time, naming the protocol and the class it takes — not an
    ``AttributeError`` from deep in the protocol's first step."""
    given = type(tolerance).__name__
    message = f"'{protocol}' takes a {expected}, not {given}"
    with pytest.raises(TypeError, match=message):
        QuerySpec(protocol, query, tolerance)


def test_an_exact_protocol_keeps_any_checking_tolerance():
    QuerySpec("zt-nrp", RANGE, FractionTolerance(0.2, 0.2))
    QuerySpec("zt-rp", TopKQuery(k=3), RankTolerance(3, 1))


def test_query_spec_builds_fresh_instances():
    spec = QuerySpec(
        protocol="rtp",
        query=TopKQuery(k=3),
        tolerance=RankTolerance(k=3, r=2),
    )
    first, second = spec.build(), spec.build()
    assert first is not second
    assert first.name == "RTP"


def test_query_spec_value_eps_requires_eps_option():
    with pytest.raises(ValueError, match="eps"):
        QuerySpec(protocol="value-eps", query=TopKQuery(k=3))
    spec = QuerySpec(
        protocol="value-eps", query=TopKQuery(k=3), options={"eps": 10.0}
    )
    assert spec.stack == "valuebased"


def test_query_spec_options_flow_to_protocol():
    spec = QuerySpec(
        protocol="rtp",
        query=TopKQuery(k=3),
        tolerance=RankTolerance(k=3, r=2),
        options={"expand_search": False},
    )
    assert spec.build().expand_search is False


def test_spatial_protocol_names_map_to_spatial_stack():
    from repro.spatial.geometry import BoxRegion
    from repro.spatial.queries import SpatialRangeQuery

    spec = QuerySpec(
        protocol="zt-nrp-2d",
        query=SpatialRangeQuery(BoxRegion((0.0, 0.0), (1.0, 1.0))),
    )
    assert spec.stack == "spatial"
    assert spec.build().name == "ZT-NRP-2d"


# ----------------------------------------------------------------------
# Workload
# ----------------------------------------------------------------------
def test_workload_materialize_caches_and_is_deterministic():
    workload = Workload.synthetic(n_streams=20, horizon=30.0, seed=5)
    first = workload.materialize()
    assert workload.materialize() is first
    again = Workload.synthetic(n_streams=20, horizon=30.0, seed=5)
    assert (again.materialize().values == first.values).all()


def test_workload_equality_survives_materialization():
    # The cached trace is derived state: it must not participate in
    # equality (ndarray comparison inside __eq__ would also raise).
    a = Workload.synthetic(n_streams=10, horizon=5.0, seed=1)
    b = Workload.synthetic(n_streams=10, horizon=5.0, seed=1)
    assert a == b
    a.materialize()
    assert a == b
    b.materialize()
    assert a == b
    assert a != Workload.synthetic(n_streams=10, horizon=5.0, seed=2)


def test_trace_workloads_compare_by_trace_identity():
    # Equal parameters are not enough for a wrapped trace: a cache keyed
    # on workload equality would reuse the wrong one.
    small = Workload.synthetic(n_streams=10, horizon=5.0, seed=1)
    large = Workload.synthetic(n_streams=20, horizon=5.0, seed=1)
    a, b = small.materialize(), large.materialize()
    assert Workload.from_trace(a) != Workload.from_trace(b)
    assert Workload.from_trace(a) == Workload.from_trace(a)
    twin = Workload.synthetic(n_streams=10, horizon=5.0, seed=1).materialize()
    assert Workload.from_trace(a) != Workload.from_trace(twin)  # equal arrays
    assert Workload.from_trace(a) != small
    assert Workload.from_trace(a) != None  # noqa: E711


def test_workload_from_trace_wraps_verbatim():
    trace = Workload.synthetic(n_streams=5, horizon=10.0, seed=0).materialize()
    assert Workload.from_trace(trace).materialize() is trace


def test_workload_rejects_unknown_kind():
    with pytest.raises(ValueError, match="kind"):
        Workload(kind="csv")
    with pytest.raises(ValueError, match="trace"):
        Workload(kind="trace")


# ----------------------------------------------------------------------
# Deployment
# ----------------------------------------------------------------------
def test_deployment_constructors_and_describe():
    assert Deployment.single().describe() == "single"
    assert Deployment.sharded(4).describe() == "sharded(4)"


def test_deployment_rejects_inconsistent_shapes():
    with pytest.raises(ValueError, match="one of"):
        Deployment(topology="mesh")
    with pytest.raises(ValueError, match="exactly one shard"):
        Deployment(topology="single", n_shards=3)
    with pytest.raises(ValueError, match="n_shards >= 2"):
        Deployment.sharded(1)
    with pytest.raises(TypeError, match="int"):
        Deployment.sharded(True)


def test_deployment_validates_run_config_knobs_eagerly():
    with pytest.raises(TypeError, match="replay_mode"):
        Deployment.single(replay_mode="fast")
    with pytest.raises(ValueError, match="check_every"):
        Deployment.single(check_every=-1)


def test_deployment_defaults_are_valid_and_frozen():
    deployment = Deployment()
    assert deployment.check_every == 0
    with pytest.raises(AttributeError):
        deployment.check_every = 3


def test_negative_check_every_is_rejected():
    with pytest.raises(ValueError, match="check_every must be >= 0"):
        Deployment(check_every=-1)


@pytest.mark.parametrize("check_every", [1.5, "2", True])
def test_non_int_check_every_is_a_type_error(check_every):
    with pytest.raises(TypeError, match="check_every must be an int"):
        Deployment(check_every=check_every)


@pytest.mark.parametrize("knob", ["parallel", "strict"])
@pytest.mark.parametrize("value", ["no", 1, 0, None, 1.0])
def test_non_bool_parallel_or_strict_is_a_type_error(knob, value):
    """A truthy string would otherwise launch worker processes."""
    with pytest.raises(TypeError, match=f"{knob} must be a bool"):
        Deployment(**{knob: value})
    with pytest.raises(TypeError, match=f"{knob} must be a bool"):
        Deployment.sharded(2, **{knob: value})


def test_with_checking_rejects_a_non_bool_strict():
    with pytest.raises(TypeError, match="strict must be a bool"):
        Deployment().with_checking(1, strict="yes")


def test_with_checking_returns_updated_copy():
    base = Deployment.sharded(2)
    checked = base.with_checking(5)
    assert checked.check_every == 5 and checked.n_shards == 2
    assert base.check_every == 0
