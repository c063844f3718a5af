"""The sharded topology's contract, as the ISSUE acceptance states it:

``Engine.run(spec, workload, Deployment.sharded(n))`` produces message
ledgers byte-identical to ``Deployment.single()`` on the workloads of
figures 01 and 09-15 (smoke profile) for all five scalar protocols.

Workloads are rebuilt from each figure module's own smoke parameters,
so the corpus tracks the figures; every scalar protocol runs on every
workload under both topologies and the full ledger snapshots (phase ×
message kind) must compare equal, along with the final answers.
"""

import pytest

from repro.api import Deployment, Engine, QuerySpec, Workload
from repro.experiments import (
    figure01,
    figure09,
    figure10,
    figure11,
    figure12,
    figure13,
    figure14,
    figure15,
)
from repro.experiments.base import Profile
from repro.queries.knn import KnnQuery, TopKQuery
from repro.queries.range_query import RangeQuery
from repro.tolerance.fraction_tolerance import FractionTolerance
from repro.tolerance.rank_tolerance import RankTolerance
from replay_forcing import run_forced


def _smoke(figure_module):
    return figure_module._PROFILES[Profile.SMOKE]


def _workloads() -> dict[str, Workload]:
    """One workload per figure, from the figures' own smoke parameters."""
    workloads = {}
    for name, module in [
        ("figure01", figure01),
        ("figure12", figure12),
        ("figure14", figure14),
        ("figure15", figure15),
    ]:
        params = _smoke(module)
        workloads[name] = Workload.synthetic(
            n_streams=params["n_streams"],
            horizon=params["horizon"],
            seed=0,
        )
    params = _smoke(figure13)
    workloads["figure13"] = Workload.synthetic(
        n_streams=params["n_streams"],
        horizon=params["horizon"],
        sigma=params["sigma_values"][-1],
        seed=0,
    )
    for name, module in [("figure09", figure09), ("figure10", figure10)]:
        params = _smoke(module)
        workloads[name] = Workload.tcp(
            n_subnets=params["n_subnets"],
            n_connections=params["n_connections"],
            days=params["days"],
            seed=0,
        )
    params = _smoke(figure11)
    n_max = max(params["stream_counts"])
    workloads["figure11"] = Workload.tcp(
        n_subnets=n_max,
        n_connections=n_max * params["connections_per_stream"],
        days=params["days"],
        seed=0,
    )
    return workloads


WORKLOADS = _workloads()

#: The five scalar protocols of the paper, k/tolerances sized for the
#: smallest smoke population (100 streams).
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


@pytest.mark.parametrize("figure", sorted(WORKLOADS))
@pytest.mark.parametrize("protocol", sorted(SCALAR_SPECS))
def test_sharded_ledger_identical_to_single(figure, protocol):
    engine = Engine()
    spec = SCALAR_SPECS[protocol]
    workload = WORKLOADS[figure]
    single = engine.run(spec, workload, Deployment.single())
    sharded = engine.run(spec, workload, Deployment.sharded(3))
    assert sharded.ledger == single.ledger
    assert sharded.final_answer == single.final_answer
    # extras["replay"] is an execution diagnostic (which kernel ran),
    # legitimately topology-dependent; everything else must agree.
    strip = lambda e: {k: v for k, v in e.items() if k != "replay"}  # noqa: E731
    assert strip(sharded.extras) == strip(single.extras)


@pytest.mark.parametrize("n_shards", [2, 5, 8])
def test_shard_count_never_changes_the_ledger(n_shards):
    engine = Engine()
    spec = SCALAR_SPECS["rtp"]
    workload = WORKLOADS["figure01"]
    single = engine.run(spec, workload, Deployment.single())
    sharded = engine.run(spec, workload, Deployment.sharded(n_shards))
    assert sharded.ledger == single.ledger


@pytest.mark.parametrize("mode", ["event", "batch"])
def test_equivalence_holds_in_both_replay_modes(mode):
    engine = Engine()
    spec = SCALAR_SPECS["ft-rp"]
    workload = WORKLOADS["figure15"]
    single = run_forced(
        mode, lambda: engine.run(spec, workload, Deployment.single())
    )
    sharded = run_forced(
        mode, lambda: engine.run(spec, workload, Deployment.sharded(4))
    )
    assert sharded.ledger == single.ledger


def test_full_figure_series_identical_under_sharding():
    """A whole figure, end to end: sharded series equal single-server."""
    single = figure15.run(profile=Profile.SMOKE, seed=0)
    sharded = figure15.run(
        profile=Profile.SMOKE,
        seed=0,
        deployment=Deployment.sharded(3),
    )
    assert sharded.series == single.series
    assert sharded.x_values == single.x_values
