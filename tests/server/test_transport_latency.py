"""Nonzero latency across the process boundary: the in-flight plane.

``Deployment.sharded(n, parallel=True, latency=m)`` with a *nonzero*
model runs the shard transport with externally-stepped worker channels:
workers export their pending ``(delivery time, send seq, message)``
heap entries as columnar frames at epoch boundaries, the coordinator
merges them into one global plane, and the epoch stepper advances to
the earliest pending delivery instead of assuming quiescence.

The contract is the transport's usual one, extended to latency: the
message ledger and the final answer must be byte-identical to
sequential sharded serving under the *same* latency model, across
protocols x shard counts x replay modes — deferred deliveries, FIFO
clamps, end-of-run drains and all.
"""

import pytest

from repro.api import Deployment, Engine, QuerySpec, Workload
from repro.network.latency import (
    ExponentialLatency,
    FixedLatency,
    UniformLatency,
)
from repro.queries.knn import KnnQuery, TopKQuery
from repro.spatial.queries import SpatialKnnQuery
from repro.tolerance.rank_tolerance import RankTolerance

SCALAR_WORKLOAD = Workload.synthetic(n_streams=100, horizon=30.0, seed=7)
SPATIAL_WORKLOAD = Workload.moving_objects(n_objects=60, horizon=40.0, seed=3)

#: One coupled protocol per family, per the acceptance grid — the full
#: protocol sweep under zero delay lives in ``test_transport.py``.
SPECS = {
    "rtp": QuerySpec(
        protocol="rtp",
        query=TopKQuery(k=5),
        tolerance=RankTolerance(k=5, r=3),
    ),
    "zt-rp": QuerySpec(protocol="zt-rp", query=KnnQuery(q=500.0, k=5)),
    "zt-rp-2d": QuerySpec(
        protocol="zt-rp-2d", query=SpatialKnnQuery((500.0, 500.0), 5)
    ),
}

#: Each protocol exercises a different model family; seeds make the
#: stochastic models reproducible (and identical across both runs — the
#: model is re-instantiated per run, never shared).
MODELS = {
    "rtp": lambda: FixedLatency(uplink=0.4, downlink=0.25),
    "zt-rp": lambda: ExponentialLatency(0.3, 0.05, seed=5),
    "zt-rp-2d": lambda: UniformLatency(0.05, 0.6, seed=11),
}


def _workload(protocol):
    return SPATIAL_WORKLOAD if protocol.endswith("-2d") else SCALAR_WORKLOAD


@pytest.mark.parametrize("mode", ["event", "batch"])
@pytest.mark.parametrize("n_shards", [2, 4])
@pytest.mark.parametrize("protocol", sorted(SPECS))
def test_nonzero_latency_ledger_identical_to_sequential(
    protocol, n_shards, mode
):
    engine = Engine()
    spec = SPECS[protocol]
    workload = _workload(protocol)
    sequential = engine.run(
        spec,
        workload,
        Deployment.sharded(
            n_shards, replay_mode=mode, latency=MODELS[protocol]()
        ),
    )
    parallel = engine.run(
        spec,
        workload,
        Deployment.sharded(
            n_shards,
            parallel=True,
            replay_mode=mode,
            latency=MODELS[protocol](),
        ),
    )
    assert parallel.ledger == sequential.ledger
    assert parallel.final_answer == sequential.final_answer


#: The lively regime (ROADMAP "Truth-up (a)"): at sigma=150 with delays
#: of several time units, installs are still in flight at the horizon
#: and the forced drain provokes self-corrections under a frozen clock
#: — due at ``horizon + delay``, ahead of installs the drain has yet to
#: deliver.  Only RTP attaches beliefs to deploys, so only RTP sees it.
LIVELY = {"sigma": 150.0, "mean_interarrival": 8.0, "horizon": 60.0}
LIVELY_SPECS = {
    "rtp": SPECS["rtp"],
    "rtp-2d": QuerySpec(
        protocol="rtp-2d",
        query=SpatialKnnQuery((500.0, 500.0), 5),
        tolerance=RankTolerance(k=5, r=3),
    ),
}


@pytest.mark.parametrize("seed", [3, 7])
@pytest.mark.parametrize("protocol", sorted(LIVELY_SPECS))
def test_lively_drain_ledger_identical_to_sequential(protocol, seed):
    if protocol.endswith("-2d"):
        workload = Workload.moving_objects(n_objects=60, seed=seed, **LIVELY)
    else:
        workload = Workload.synthetic(n_streams=60, seed=seed, **LIVELY)
    engine = Engine()
    spec = LIVELY_SPECS[protocol]
    sequential = engine.run(
        spec,
        workload,
        Deployment.sharded(2, latency=UniformLatency(1, 8, seed=1)),
    )
    parallel = engine.run(
        spec,
        workload,
        Deployment.sharded(
            2, parallel=True, latency=UniformLatency(1, 8, seed=1)
        ),
    )
    assert parallel.ledger == sequential.ledger
    assert parallel.final_answer == sequential.final_answer


def test_transport_accounts_in_flight_deliveries():
    engine = Engine()
    report = engine.run(
        SPECS["rtp"],
        SCALAR_WORKLOAD,
        Deployment.sharded(
            2, parallel=True, latency=FixedLatency(0.4, 0.25)
        ),
    )
    transport = report.extras["replay"]["transport"]
    # Deferred traffic crossed the plane; whatever was still in flight
    # at the horizon was force-drained, mirroring the sequential
    # channels' end-of-run ``drain_in_flight``.
    assert transport["in_flight_deliveries"] > 0
    assert transport["in_flight_leaked"] >= 0


def test_checking_runs_compose_with_nonzero_latency():
    # The coordinator-side oracle sandwich must survive plane stepping:
    # quiescent records settle strictly before each delivery's reaction
    # can move the answer.
    engine = Engine()
    spec = SPECS["rtp"]
    model = lambda: FixedLatency(uplink=0.4, downlink=0.25)  # noqa: E731
    sequential = engine.run(
        spec,
        SCALAR_WORKLOAD,
        Deployment.sharded(2, check_every=5, latency=model()),
    )
    checked = engine.run(
        spec,
        SCALAR_WORKLOAD,
        Deployment.sharded(2, parallel=True, check_every=5, latency=model()),
    )
    assert checked.checks == sequential.checks > 0
    assert list(checked.violations) == list(sequential.violations)
    assert checked.ledger == sequential.ledger
    assert checked.final_answer == sequential.final_answer
