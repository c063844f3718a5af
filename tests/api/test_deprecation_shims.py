"""Old entrypoints must warn — and return ledger-identical results."""

import pytest

from repro.api import Deployment, Engine, QuerySpec, Workload
from repro.harness.config import RunConfig
from repro.queries.knn import TopKQuery
from repro.queries.range_query import RangeQuery
from repro.tolerance.rank_tolerance import RankTolerance

WORKLOAD = Workload.synthetic(n_streams=60, horizon=80.0, seed=9)


def test_run_protocol_shim_warns_and_matches_engine():
    from repro.harness.runner import run_protocol
    from repro.protocols.rtp import RankToleranceProtocol

    tolerance = RankTolerance(k=4, r=2)
    trace = WORKLOAD.materialize()
    with pytest.warns(DeprecationWarning, match="run_protocol is deprecated"):
        legacy = run_protocol(
            trace,
            RankToleranceProtocol(TopKQuery(k=4), tolerance),
            tolerance=tolerance,
            config=RunConfig(check_every=5),
        )
    report = Engine().run(
        QuerySpec(
            protocol="rtp", query=TopKQuery(k=4), tolerance=tolerance
        ),
        WORKLOAD,
        Deployment.single(check_every=5),
    )
    assert legacy.ledger == report.ledger
    assert legacy.final_answer == report.final_answer
    assert legacy.checker is not None and legacy.checker.ok


def test_run_multi_query_shim_warns_and_matches_engine():
    from repro.multiquery.runner import run_multi_query
    from repro.protocols.zt_nrp import ZeroToleranceRangeProtocol

    query = RangeQuery(400.0, 600.0)
    trace = WORKLOAD.materialize()
    with pytest.warns(
        DeprecationWarning, match="run_multi_query is deprecated"
    ):
        legacy = run_multi_query(
            trace, {"q": (ZeroToleranceRangeProtocol(query), query, None)}
        )
    report = Engine().run_queries(
        {"q": QuerySpec(protocol="zt-nrp", query=query)}, WORKLOAD
    )
    assert legacy.ledger == report.ledger
    assert legacy.answers == report.answers


def test_sweep_shims_warn_and_match():
    from repro.api import run_grid as api_run_grid
    from repro.api import sweep_values as api_sweep_values
    from repro.harness.sweep import run_grid, sweep_values

    def square(x=0):
        return x * x

    with pytest.warns(DeprecationWarning, match="sweep_values is deprecated"):
        legacy = sweep_values(square, "x", [1, 2, 3])
    assert legacy == api_sweep_values(square, "x", [1, 2, 3]) == [1, 4, 9]

    with pytest.warns(DeprecationWarning, match="run_grid is deprecated"):
        legacy_grid = run_grid(square, {"x": [2, 3]})
    assert legacy_grid == api_run_grid(square, {"x": [2, 3]})
    assert [row["result"] for row in legacy_grid] == [4, 9]
