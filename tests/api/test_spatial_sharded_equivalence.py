"""The sharded spatial topology's contract, mirroring the scalar suite
(``test_sharded_equivalence.py``) as the ISSUE acceptance states it:

``Engine.run(spec, workload, Deployment.sharded(n))`` produces message
ledgers byte-identical to ``Deployment.single()`` for every spatial
``-2d`` protocol on the moving-objects workloads, across shard counts
{2, 4} and both replay modes — i.e. the whole
``{single, sharded(2), sharded(4)} × {per-event, batched}`` grid
collapses to one ledger per (protocol, workload).
"""

import pytest

from repro.api import Deployment, Engine, QuerySpec, Workload
from repro.spatial.geometry import BoxRegion
from repro.spatial.queries import SpatialKnnQuery, SpatialRangeQuery
from repro.tolerance.fraction_tolerance import FractionTolerance
from repro.tolerance.rank_tolerance import RankTolerance
from replay_forcing import run_forced

QUERY_BOX = BoxRegion([300.0, 300.0], [700.0, 700.0])
CENTER = (500.0, 500.0)

#: All six spatial protocols, sized for an 80-object population.
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

#: Two regimes: lively (default sigma) and filtering (small steps, the
#: regime where the batched pre-scan stages most records).
WORKLOADS = {
    "lively": Workload.moving_objects(n_objects=80, horizon=120.0, seed=3),
    "filtering": Workload.moving_objects(
        n_objects=80, horizon=120.0, sigma=4.0, seed=3
    ),
}


@pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
@pytest.mark.parametrize("protocol", sorted(SPATIAL_SPECS))
def test_spatial_grid_collapses_to_one_ledger(protocol, workload_name):
    engine = Engine()
    spec = SPATIAL_SPECS[protocol]
    workload = WORKLOADS[workload_name]
    base = run_forced(
        "event", lambda: engine.run(spec, workload, Deployment.single())
    )
    for n_shards in (1, 2, 4):
        for mode in ("event", "batch"):
            deployment = (
                Deployment.single()
                if n_shards == 1
                else Deployment.sharded(n_shards)
            )
            report = run_forced(
                mode, lambda: engine.run(spec, workload, deployment)
            )
            assert report.ledger == base.ledger, (
                f"{protocol} {deployment.describe()} {mode} diverged"
            )
            assert report.final_answer == base.final_answer


def test_sharded_spatial_checking_matches_single():
    """Continuous tolerance checking runs identically when sharded."""
    engine = Engine()
    spec = SPATIAL_SPECS["rtp-2d"]
    workload = WORKLOADS["lively"]
    single = engine.run(
        spec, workload, Deployment.single(check_every=5)
    )
    sharded = engine.run(
        spec, workload, Deployment.sharded(3, check_every=5)
    )
    assert single.violations == ()
    assert sharded.violations == ()
    assert sharded.checks == single.checks
    assert sharded.ledger == single.ledger


def test_sharded_spatial_extras_match_single():
    """Protocol-internal counters (recompute/expansion) are identical —
    the protocol cannot tell which topology it runs on."""
    engine = Engine()
    spec = SPATIAL_SPECS["ft-rp-2d"]
    workload = WORKLOADS["lively"]
    single = engine.run(spec, workload, Deployment.single())
    sharded = engine.run(spec, workload, Deployment.sharded(4))
    # extras["replay"] is an execution diagnostic, not protocol state.
    strip = lambda e: {k: v for k, v in e.items() if k != "replay"}  # noqa: E731
    assert strip(sharded.extras) == strip(single.extras)
