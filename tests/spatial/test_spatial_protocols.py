"""Randomized correctness + shape tests for the ``-2d`` specs: the six
protocols of :mod:`repro.protocols` hosted on the spatial stack."""

import numpy as np
import pytest

from repro.api import Deployment, Engine, QuerySpec, Workload
from repro.spatial.geometry import BoxRegion
from repro.spatial.queries import SpatialKnnQuery, SpatialRangeQuery
from repro.spatial.trace import SpatialTrace
from repro.spatial.workloads import (
    MovingObjectsConfig,
    generate_moving_objects_trace,
)
from repro.tolerance.fraction_tolerance import FractionTolerance
from repro.tolerance.knn_fraction import RhoPolicy
from repro.tolerance.rank_tolerance import RankTolerance
from trace_cuts import head

CHECKED = Deployment.single(check_every=1, strict=True)
BOX = BoxRegion([350.0, 350.0], [650.0, 650.0])
CENTER = [500.0, 500.0]


def run_2d(trace, name, query, tolerance=None, deployment=None, **options):
    """One ``name-2d`` spec over *trace* through the engine."""
    return Engine().run(
        QuerySpec(name + "-2d", query, tolerance, options),
        Workload.from_trace(trace),
        deployment,
    )


@pytest.fixture(scope="module")
def trace():
    return generate_moving_objects_trace(
        MovingObjectsConfig(n_objects=80, horizon=250.0, seed=0)
    )


class TestExactProtocols:
    def test_no_filter_exact(self, trace):
        result = run_2d(trace, "no-filter", SpatialRangeQuery(BOX), deployment=CHECKED)
        assert result.tolerance_ok
        assert result.maintenance_messages == trace.n_records

    def test_zt_range_exact_and_cheaper(self, trace):
        result = run_2d(trace, "zt-nrp", SpatialRangeQuery(BOX), deployment=CHECKED)
        assert result.tolerance_ok
        assert result.maintenance_messages < trace.n_records

    def test_zt_knn_exact(self, trace):
        result = run_2d(trace, "zt-rp", SpatialKnnQuery(CENTER, 5), deployment=CHECKED)
        assert result.tolerance_ok


class TestSpatialFtNrp:
    @pytest.mark.parametrize("eps", [0.0, 0.2, 0.45])
    def test_tolerance_held(self, trace, eps):
        tolerance = FractionTolerance(eps, eps)
        result = run_2d(
            trace, "ft-nrp", SpatialRangeQuery(BOX), tolerance, CHECKED
        )
        assert result.tolerance_ok

    def test_silencers_allocated(self, trace):
        tolerance = FractionTolerance(0.4, 0.4)
        result = run_2d(
            head(trace, 0.0), "ft-nrp", SpatialRangeQuery(BOX), tolerance
        )
        box_members = int(BOX.contains_many(trace.initial_points).sum())
        assert result.extras["n_plus"] == min(
            tolerance.emax_plus(box_members), box_members
        )


class TestSpatialRtp:
    @pytest.mark.parametrize("k,r", [(3, 0), (5, 2), (8, 5)])
    def test_tolerance_held(self, trace, k, r):
        tolerance = RankTolerance(k=k, r=r)
        result = run_2d(
            trace, "rtp", SpatialKnnQuery(CENTER, k), tolerance, CHECKED
        )
        assert result.tolerance_ok
        assert len(result.final_answer) == k

    def test_k_mismatch_rejected(self):
        with pytest.raises(ValueError):
            QuerySpec(
                "rtp-2d", SpatialKnnQuery(CENTER, 3), RankTolerance(k=5, r=0)
            ).build()

    def test_rank_slack_reduces_cost(self, trace):
        costs = {}
        for r in (0, 6):
            tolerance = RankTolerance(k=5, r=r)
            result = run_2d(trace, "rtp", SpatialKnnQuery(CENTER, 5), tolerance)
            costs[r] = result.maintenance_messages
        assert costs[6] < costs[0]


class TestSpatialFtRp:
    @pytest.mark.parametrize("eps", [0.0, 0.2, 0.4])
    @pytest.mark.parametrize("policy", list(RhoPolicy))
    def test_tolerance_held(self, trace, eps, policy):
        tolerance = FractionTolerance(eps, eps)
        result = run_2d(
            trace,
            "ft-rp",
            SpatialKnnQuery(CENTER, 8),
            tolerance,
            CHECKED,
            policy=policy,
        )
        assert result.tolerance_ok

    def test_tolerance_slashes_cost_vs_zt(self, trace):
        zt = run_2d(trace, "zt-rp", SpatialKnnQuery(CENTER, 10))
        tolerance = FractionTolerance(0.3, 0.3)
        ft = run_2d(trace, "ft-rp", SpatialKnnQuery(CENTER, 10), tolerance)
        assert ft.maintenance_messages < zt.maintenance_messages / 5


class TestManySeeds:
    @pytest.mark.parametrize("seed", range(3))
    def test_full_matrix_on_fresh_traces(self, seed):
        trace = generate_moving_objects_trace(
            MovingObjectsConfig(n_objects=50, horizon=200.0, seed=seed + 10)
        )
        rank_tol = RankTolerance(k=4, r=3)
        frac_tol = FractionTolerance(0.25, 0.25)
        runs = [
            ("rtp", SpatialKnnQuery(CENTER, 4), rank_tol),
            ("ft-rp", SpatialKnnQuery(CENTER, 6), frac_tol),
            ("ft-nrp", SpatialRangeQuery(BOX), frac_tol),
        ]
        for name, query, tolerance in runs:
            result = run_2d(trace, name, query, tolerance, CHECKED)
            assert result.tolerance_ok, name


class TestDegenerateTraces:
    def test_static_objects_cost_nothing_after_init(self):
        trace = SpatialTrace(
            initial_points=np.random.default_rng(0).uniform(
                0, 1000, size=(30, 2)
            ),
            times=np.array([]),
            stream_ids=np.array([]),
            points=np.empty((0, 2)),
            horizon=10.0,
        )
        tolerance = FractionTolerance(0.2, 0.2)
        result = run_2d(
            trace, "ft-nrp", SpatialRangeQuery(BOX), tolerance, CHECKED
        )
        assert result.maintenance_messages == 0
