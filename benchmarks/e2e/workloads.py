"""The seven named workloads and their equivalent-deployment siblings.

Each workload is a ``(QuerySpec, Workload, Deployment)`` triple chosen
so that a *different* layer of ``src/repro/`` dominates its wall (the
``why`` strings say which; README.md has the measured shares).  A
sibling is a second deployment of the same spec and trace that the
repo's differential grids certify ledger-identical; the runner checks
that identity on every invocation and keeps the two walls for the
outlier table.

Sizes: populations are the ones ISSUE 11 names; horizons are scaled so
one ``Engine.run`` takes roughly 0.7-1.3 s on the 2-core reference box,
which is what lets a 15 s measuring window hold a dozen or more samples
and an invocation (set-up probes, warm-up, siblings, window) stay under
the 30 s the driver's 114-invocation schedule leaves it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro import (
    FractionTolerance,
    RangeQuery,
    RankTolerance,
    TopKQuery,
    UniformLatency,
)
from repro.api import Deployment, QuerySpec, Workload
from repro.durability import DurabilityPolicy
from repro.spatial.queries import SpatialKnnQuery

#: Shard count is fixed (not derived from the host) so numbers compare
#: across machines; the reference box has 2 cores.
N_SHARDS = 2

#: ``--smoke`` divides every horizon by this (harness self-test scale).
SMOKE_DIVISOR = 20


@dataclass(frozen=True)
class Sibling:
    """A ledger-equivalent deployment of the same spec and trace."""

    label: str
    deployment: Deployment
    #: Per-layer metric that reports workload wall / this sibling's wall.
    ratio_metric: str | None = None


@dataclass(frozen=True)
class WorkloadDef:
    name: str
    why: str
    spec: QuerySpec
    generator: Callable[..., Workload]
    params: dict
    #: ``run_dir`` is a fresh directory per call; only durable uses it.
    deployment: Callable[[str], Deployment]
    siblings: tuple[Sibling, ...] = ()
    #: The label printed for this workload's own deployment.
    deployment_label: str = "single()"
    #: Also require ``resume_run(run_dir, trace)`` to reproduce the ledger.
    check_resume: bool = False

    def workload(self, seed: int, smoke: bool = False) -> Workload:
        """The trace description for *seed* (the only use of the seed)."""
        params = dict(self.params, seed=seed)
        if smoke:
            params["horizon"] = params["horizon"] / SMOKE_DIVISOR
        return self.generator(**params)


_RANGE = RangeQuery(400.0, 600.0)
_FT_NRP = QuerySpec("ft-nrp", _RANGE, FractionTolerance(0.2, 0.2))
_RTP = QuerySpec("rtp", TopKQuery(k=10), RankTolerance(k=10, r=5))
_RTP_2D = QuerySpec(
    "rtp-2d", SpatialKnnQuery((500.0, 500.0), 10), RankTolerance(k=10, r=5)
)
_ZT_NRP = QuerySpec("zt-nrp", _RANGE)
_CHECK_LATENCY = UniformLatency(1.0, 8.0, seed=7)
_EPOCH_LATENCY = UniformLatency(0.05, 0.6, seed=11)
_TOPK_PARAMS = {"n_streams": 10_000, "horizon": 2.5}


def _fixed(deployment: Deployment) -> Callable[[str], Deployment]:
    return lambda run_dir: deployment


def _durable(run_dir: str) -> Deployment:
    return Deployment.single(
        durable=DurabilityPolicy(
            run_dir=run_dir, fsync="interval", snapshot_every=50_000
        )
    )


WORKLOADS: tuple[WorkloadDef, ...] = (
    WorkloadDef(
        name="range_filter",
        why=(
            "The paper's filtering regime: >97% of records are quiescent, so "
            "the batched run kernel (runtime) does the work and protocol+server "
            "do little; also the largest trace to materialize and hold."
        ),
        spec=_FT_NRP,
        generator=Workload.synthetic,
        params={"n_streams": 10_000, "horizon": 1600.0},
        deployment=_fixed(Deployment.single()),
    ),
    WorkloadDef(
        name="range_checked_latency",
        why=(
            "Checking forces per-event replay: correctness.check dominates, the "
            "batched kernel is bypassed, LatencyChannel and StalenessWindow run "
            "in-process. A batched-kernel optimisation should not move it."
        ),
        spec=_FT_NRP,
        generator=Workload.synthetic,
        params={"n_streams": 1000, "horizon": 120.0},
        deployment=_fixed(
            Deployment.single(check_every=1, latency=_CHECK_LATENCY)
        ),
        deployment_label="single(check_every=1, latency)",
    ),
    WorkloadDef(
        name="topk_reinit",
        why=(
            "Reaction-bound: every bound crossing re-deploys to all 10k streams, "
            "so scalar Server.deploy calls dominate and the replay kernel is "
            "idle - the mirror image of range_filter."
        ),
        spec=_RTP,
        generator=Workload.synthetic,
        params=_TOPK_PARAMS,
        deployment=_fixed(Deployment.single()),
    ),
    WorkloadDef(
        name="topk_transport",
        why=(
            "topk_reinit's ledger on the process transport in its bulk regime "
            "(few epochs, MBs of frames, worker launch): a reaction-side gain "
            "moves both, a transport-side gain moves only this one."
        ),
        spec=_RTP,
        generator=Workload.synthetic,
        params=_TOPK_PARAMS,
        deployment=_fixed(Deployment.sharded(N_SHARDS, parallel=True)),
        siblings=(
            Sibling(
                "sharded(2)",
                Deployment.sharded(N_SHARDS),
                ratio_metric="server.transport.vs_sequential_ratio",
            ),
            Sibling("single()", Deployment.single()),
        ),
        deployment_label="sharded(2, parallel)",
    ),
    WorkloadDef(
        name="range_transport_latency",
        why=(
            "The same transport in its round-trip regime: ~2000 epochs of "
            "~40-byte posts, one in-flight delivery group each, so per-epoch "
            "cost dominates and bytes do not - the opposite of topk_transport."
        ),
        spec=_FT_NRP,
        generator=Workload.synthetic,
        params={"n_streams": 1000, "horizon": 20.0},
        deployment=_fixed(
            Deployment.sharded(N_SHARDS, parallel=True, latency=_EPOCH_LATENCY)
        ),
        siblings=(
            Sibling(
                "sharded(2, latency)",
                Deployment.sharded(N_SHARDS, latency=_EPOCH_LATENCY),
                ratio_metric="server.transport.vs_sequential_ratio",
            ),
        ),
        deployment_label="sharded(2, parallel, latency)",
    ),
    WorkloadDef(
        name="knn2d_sharded",
        why=(
            "The spatial vocabulary (regions, AABB quiescence mask, "
            "ShardedRankView merge) on the sequential sharded coordinator; "
            "untouched by scalar-only or transport-only changes."
        ),
        spec=_RTP_2D,
        generator=Workload.moving_objects,
        params={"n_objects": 5000, "horizon": 50.0},
        deployment=_fixed(Deployment.sharded(N_SHARDS)),
        siblings=(Sibling("single()", Deployment.single()),),
        deployment_label="sharded(2)",
    ),
    WorkloadDef(
        name="range_durable",
        why=(
            "Writes beside reads: the columnar replay is a small share, the "
            "rest is journal appends, fsyncs and snapshots. A replay gain "
            "bought with extra ledger charges or state copies loses here."
        ),
        spec=_ZT_NRP,
        generator=Workload.synthetic,
        params={"n_streams": 10_000, "horizon": 300.0, "sigma": 150.0},
        deployment=_durable,
        siblings=(
            Sibling(
                "single()",
                Deployment.single(),
                ratio_metric="durability.vs_nondurable_ratio",
            ),
        ),
        deployment_label="single(durable)",
        check_resume=True,
    ),
)

BY_NAME = {defn.name: defn for defn in WORKLOADS}
