"""The differential contract of the latency-modeled channel:

``LatencyChannel(latency=0)`` — a genuinely different code path from the
synchronous channel (its own send routing, FIFO bookkeeping, drain
hooks) — must produce **byte-identical message ledgers** and final
answers wherever the synchronous channel runs:

* every scalar protocol over the figure 01 / 09–15 smoke workloads,
* all six spatial ``-2d`` protocols over the moving-objects workloads,
* the value-window stack,

each across ``{single, sharded(2)}`` topologies and ``{event, batch}``
replay modes.  The latency analogue of the sharded-equivalence grids:
those suites prove sharded == single and batch == event for the
synchronous channel, so every latency-0 combination here is compared
against one cached synchronous single-server baseline per (workload,
protocol).

This suite is one half of the staleness harness: any protocol bug that
only manifests *after* staleness begins is deliberately classified
inherent by the checker (see ``repro.correctness.staleness``), because
this suite's byte-identity at latency 0 is the discriminating oracle.
"""

import pytest

from repro.api import Deployment, Engine, QuerySpec, Workload
from repro.experiments import FIGURES
from repro.experiments.base import Profile
from repro.queries.knn import KnnQuery, TopKQuery
from repro.queries.range_query import RangeQuery
from repro.spatial.geometry import BoxRegion
from repro.spatial.queries import SpatialKnnQuery, SpatialRangeQuery
from repro.tolerance.fraction_tolerance import FractionTolerance
from repro.tolerance.rank_tolerance import RankTolerance
from replay_forcing import run_forced


def _smoke(name):
    return FIGURES[name].profiles[Profile.SMOKE]


def _workloads() -> dict[str, Workload]:
    """One workload per figure, from the figures' own smoke parameters
    (the corpus of ``tests/api/test_sharded_equivalence.py``)."""
    workloads = {}
    for name in ["figure01", "figure12", "figure14", "figure15"]:
        params = _smoke(name)
        workloads[name] = Workload.synthetic(
            n_streams=params["n_streams"],
            horizon=params["horizon"],
            seed=0,
        )
    params = _smoke("figure13")
    workloads["figure13"] = Workload.synthetic(
        n_streams=params["n_streams"],
        horizon=params["horizon"],
        sigma=params["sigma_values"][-1],
        seed=0,
    )
    for name in ["figure09", "figure10"]:
        params = _smoke(name)
        workloads[name] = Workload.tcp(
            n_subnets=params["n_subnets"],
            n_connections=params["n_connections"],
            days=params["days"],
            seed=0,
        )
    params = _smoke("figure11")
    n_max = max(params["stream_counts"])
    workloads["figure11"] = Workload.tcp(
        n_subnets=n_max,
        n_connections=n_max * params["connections_per_stream"],
        days=params["days"],
        seed=0,
    )
    return workloads


WORKLOADS = _workloads()

SCALAR_SPECS = {
    "rtp": QuerySpec(
        protocol="rtp",
        query=TopKQuery(k=5),
        tolerance=RankTolerance(k=5, r=3),
    ),
    "zt-nrp": QuerySpec(protocol="zt-nrp", query=RangeQuery(400.0, 600.0)),
    "ft-nrp": QuerySpec(
        protocol="ft-nrp",
        query=RangeQuery(400.0, 600.0),
        tolerance=FractionTolerance(0.2, 0.2),
    ),
    "zt-rp": QuerySpec(protocol="zt-rp", query=KnnQuery(q=500.0, k=5)),
    "ft-rp": QuerySpec(
        protocol="ft-rp",
        query=KnnQuery(q=500.0, k=5),
        tolerance=FractionTolerance(0.2, 0.2),
    ),
}

QUERY_BOX = BoxRegion([300.0, 300.0], [700.0, 700.0])
CENTER = (500.0, 500.0)
SPATIAL_SPECS = {
    "no-filter-2d": QuerySpec(
        protocol="no-filter-2d", query=SpatialRangeQuery(QUERY_BOX)
    ),
    "zt-nrp-2d": QuerySpec(
        protocol="zt-nrp-2d", query=SpatialRangeQuery(QUERY_BOX)
    ),
    "ft-nrp-2d": QuerySpec(
        protocol="ft-nrp-2d",
        query=SpatialRangeQuery(QUERY_BOX),
        tolerance=FractionTolerance(0.2, 0.2),
    ),
    "rtp-2d": QuerySpec(
        protocol="rtp-2d",
        query=SpatialKnnQuery(CENTER, 5),
        tolerance=RankTolerance(k=5, r=3),
    ),
    "zt-rp-2d": QuerySpec(
        protocol="zt-rp-2d", query=SpatialKnnQuery(CENTER, 5)
    ),
    "ft-rp-2d": QuerySpec(
        protocol="ft-rp-2d",
        query=SpatialKnnQuery(CENTER, 5),
        tolerance=FractionTolerance(0.2, 0.2),
    ),
}
SPATIAL_WORKLOAD = Workload.moving_objects(
    n_objects=80, horizon=120.0, seed=3
)

#: The latency-0 grid each (workload, protocol) pair must collapse on.
COMBOS = [
    ("single", "event"),
    ("single", "batch"),
    ("sharded2", "event"),
    ("sharded2", "batch"),
]


def _run(spec, workload, topology: str, mode: str, latency):
    """The run on *topology*, replay forced to *mode*."""
    if topology == "single":
        deployment = Deployment.single(latency=latency)
    else:
        assert topology == "sharded2"
        deployment = Deployment.sharded(2, latency=latency)
    return run_forced(mode, lambda: Engine().run(spec, workload, deployment))


_BASELINES: dict = {}


def _baseline(kind, name, spec, workload):
    """The synchronous single-server run, computed once per pair."""
    key = (kind, name)
    if key not in _BASELINES:
        _BASELINES[key] = Engine().run(spec, workload, Deployment.single())
    return _BASELINES[key]


@pytest.mark.parametrize("topology,mode", COMBOS)
@pytest.mark.parametrize("figure", sorted(WORKLOADS))
@pytest.mark.parametrize("protocol", sorted(SCALAR_SPECS))
def test_latency_zero_scalar_ledgers_byte_identical(
    protocol, figure, topology, mode
):
    spec = SCALAR_SPECS[protocol]
    workload = WORKLOADS[figure]
    base = _baseline("scalar", (figure, protocol), spec, workload)
    report = _run(spec, workload, topology, mode, latency=0.0)
    assert report.ledger == base.ledger, (
        f"{protocol} on {figure} under latency=0 {topology}/{mode} "
        f"diverged from the synchronous channel"
    )
    assert report.final_answer == base.final_answer


@pytest.mark.parametrize("topology,mode", COMBOS)
@pytest.mark.parametrize("protocol", sorted(SPATIAL_SPECS))
def test_latency_zero_spatial_ledgers_byte_identical(
    protocol, topology, mode
):
    spec = SPATIAL_SPECS[protocol]
    base = _baseline("spatial", protocol, spec, SPATIAL_WORKLOAD)
    report = _run(spec, SPATIAL_WORKLOAD, topology, mode, latency=0.0)
    assert report.ledger == base.ledger, (
        f"{protocol} under latency=0 {topology}/{mode} diverged"
    )
    assert report.final_answer == base.final_answer


@pytest.mark.parametrize("topology", ["single", "sharded2"])
def test_latency_zero_value_window_ledger_byte_identical(topology):
    spec = QuerySpec(
        protocol="value-eps", query=TopKQuery(k=5), options={"eps": 50.0}
    )
    workload = WORKLOADS["figure01"]
    base = _baseline("value", "figure01", spec, workload)
    report = _run(spec, workload, topology, "auto", latency=0.0)
    assert report.ledger == base.ledger
    assert report.extras["worst_rank"] == base.extras["worst_rank"]


def test_latency_zero_runs_are_violation_free():
    """The other half of the differential oracle: at latency 0 every
    checked protocol still satisfies its tolerance — so any violation a
    latency>0 run observes is attributable to staleness, not the code."""
    engine = Engine()
    workload = WORKLOADS["figure01"]
    for name, spec in SCALAR_SPECS.items():
        report = engine.run(
            spec,
            workload,
            Deployment.single(check_every=1, latency=0.0),
        )
        assert report.tolerance_ok, f"{name}: {report.violations[:3]}"
        assert report.extras["violations_inherent_latency"] == 0
        assert report.extras["violations_protocol_bug"] == 0


MULTIQUERY_SPECS = {
    "zone": SCALAR_SPECS["zt-nrp"],
    "loose": SCALAR_SPECS["ft-nrp"],
    "hot": SCALAR_SPECS["rtp"],
}


@pytest.mark.parametrize("check_every", [0, 1])
@pytest.mark.parametrize("mode", ["event", "batch"])
@pytest.mark.parametrize("figure", ["figure01", "figure13"])
def test_latency_zero_multiquery_byte_identical(figure, mode, check_every):
    """A query group's every message crosses the session's channel, so
    latency 0 must leave the synchronous run: ledger, each query's
    answer, the checks and violations, and the sharing counters."""
    workload = WORKLOADS[figure]
    key = ("multiquery", (figure, check_every))
    if key not in _BASELINES:
        _BASELINES[key] = Engine().run_queries(
            MULTIQUERY_SPECS, workload, Deployment.single(check_every=check_every)
        )
    base = _BASELINES[key]
    deployment = Deployment.single(check_every=check_every, latency=0.0)
    report = run_forced(
        mode, lambda: Engine().run_queries(MULTIQUERY_SPECS, workload, deployment)
    )
    assert report.ledger == base.ledger
    assert report.answers == base.answers
    assert report.checks == base.checks
    assert report.violations == base.violations
    for name in ("shared_updates", "logical_deliveries", "sharing_factor"):
        assert report.extras[name] == base.extras[name], name
    if check_every:
        assert report.checks == workload.materialize().n_records + 1
        assert report.extras["violations_protocol_bug"] == 0
