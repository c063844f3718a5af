"""Figure 9 — RTP: effect of the rank tolerance ``r`` (TCP data).

A top-k query ("report continuously the subnets with the k-highest volume
of data transferred") over the TCP workload, for k in {15, 20, 25, 30}
and r swept from 0 upward, against the no-filter baseline.

Expected shape: messages fall as r grows for every k; at r = 0 and large
k, RTP is *worse* than no filtering because the bound R is recomputed and
re-broadcast constantly.
"""

from __future__ import annotations

from repro.api import Deployment, Engine, QuerySpec, Workload
from repro.experiments.base import FigureResult, Profile
from repro.queries.knn import TopKQuery
from repro.tolerance.rank_tolerance import RankTolerance

_PROFILES = {
    Profile.SMOKE: {
        "n_subnets": 120,
        "n_connections": 2_500,
        "days": 5.0,
        "k_values": [5, 10],
        "r_values": [0, 4, 8],
    },
    Profile.DEFAULT: {
        "n_subnets": 800,
        "n_connections": 12_000,
        "days": 30.0,
        "k_values": [15, 20, 25, 30],
        "r_values": [0, 2, 4, 8, 12, 16, 20],
    },
    Profile.FULL: {
        "n_subnets": 800,
        "n_connections": 606_497,
        "days": 30.0,
        "k_values": [15, 20, 25, 30],
        "r_values": list(range(0, 21, 2)),
    },
    Profile.SCALE: {
        "n_subnets": 10_000,
        "n_connections": 150_000,
        "days": 30.0,
        "k_values": [15, 30],
        "r_values": [0, 4, 8, 16],
    },
}


def run(
    profile: Profile | str = Profile.DEFAULT,
    seed: int = 0,
    deployment: Deployment | None = None,
) -> FigureResult:
    """Reproduce Figure 9; returns one curve per k plus the baseline."""
    profile = Profile.coerce(profile)
    params = _PROFILES[profile]
    deployment = deployment or Deployment.single()
    engine = Engine(deployment)
    workload = Workload.tcp(
        n_subnets=params["n_subnets"],
        n_connections=params["n_connections"],
        days=params["days"],
        seed=seed,
    )

    r_values = list(params["r_values"])
    series: dict[str, list[int]] = {}

    baseline = engine.run(
        QuerySpec(
            protocol="no-filter", query=TopKQuery(k=params["k_values"][0])
        ),
        workload,
    )
    series["no filter"] = [baseline.maintenance_messages] * len(r_values)

    for k in params["k_values"]:
        curve = []
        for r in r_values:
            report = engine.run(
                QuerySpec(
                    protocol="rtp",
                    query=TopKQuery(k=k),
                    tolerance=RankTolerance(k=k, r=r),
                ),
                workload,
                label=f"k={k},r={r}",
            )
            curve.append(report.maintenance_messages)
        series[f"k={k}"] = curve

    return FigureResult(
        figure="figure09",
        title="RTP: Effect of r",
        x_name="r",
        x_values=r_values,
        series=series,
        profile=profile,
        meta={
            "workload": workload.materialize().metadata,
            "seed": seed,
            "topology": deployment.describe(),
        },
    )
