"""Figure 1 (motivation) — value-based vs rank-based tolerance, quantified.

Figure 1 of the paper is a conceptual sketch: for a maximum/top-k query,
a numeric value tolerance ``eps`` that is too small saves nothing, while
one that is too large lets the returned stream "rank far from the true
maximum".  Rank-based tolerance expresses the constraint directly.

This experiment turns the sketch into numbers.  On the synthetic
workload it runs a top-k query under

* the value-window scheme (reference [17]) for a sweep of ``eps``,
  measuring both messages *and* the worst true rank the answer reached;
* RTP with a rank tolerance ``r``, whose worst rank is bounded by
  ``k + r`` by construction.

Expected shape: the value scheme's message count falls with ``eps``
while its worst observed rank climbs without bound; no single ``eps``
matches RTP's (cost, guaranteed-rank) point.
"""

from __future__ import annotations

from repro.api import Deployment, Engine, QuerySpec, Workload
from repro.experiments.base import FigureResult, Profile
from repro.queries.knn import TopKQuery
from repro.tolerance.rank_tolerance import RankTolerance

_PROFILES = {
    Profile.SMOKE: {
        "n_streams": 100,
        "horizon": 150.0,
        "k": 5,
        "r": 3,
        "eps_values": [5.0, 50.0, 400.0],
        "check_every": 5,
    },
    Profile.DEFAULT: {
        "n_streams": 400,
        "horizon": 300.0,
        "k": 10,
        "r": 5,
        "eps_values": [2.0, 10.0, 50.0, 150.0, 400.0, 800.0],
        "check_every": 10,
    },
    Profile.FULL: {
        "n_streams": 5000,
        "horizon": 2000.0,
        "k": 10,
        "r": 5,
        "eps_values": [2.0, 10.0, 50.0, 150.0, 400.0, 800.0],
        "check_every": 20,
    },
    Profile.SCALE: {
        "n_streams": 10_000,
        "horizon": 300.0,
        "k": 10,
        "r": 5,
        "eps_values": [2.0, 10.0, 50.0, 150.0, 400.0, 800.0],
        "check_every": 50,
    },
}


def run(
    profile: Profile | str = Profile.DEFAULT,
    seed: int = 0,
    deployment: Deployment | None = None,
) -> FigureResult:
    """Quantify Figure 1: cost and rank quality across eps, vs. RTP."""
    profile = Profile.coerce(profile)
    params = _PROFILES[profile]
    deployment = deployment or Deployment.single()
    engine = Engine(deployment)
    workload = Workload.synthetic(
        n_streams=params["n_streams"],
        horizon=params["horizon"],
        seed=seed,
    )
    k, r = params["k"], params["r"]

    eps_values = list(params["eps_values"])
    messages, worst_ranks = [], []
    checked = deployment.with_checking(params["check_every"])
    for eps in eps_values:
        report = engine.run(
            QuerySpec(
                protocol="value-eps",
                query=TopKQuery(k=k),
                options={"eps": eps},
            ),
            workload,
            checked,
            label=f"eps={eps}",
        )
        messages.append(report.maintenance_messages)
        worst_ranks.append(report.extras["worst_rank"])

    tolerance = RankTolerance(k=k, r=r)
    rtp = engine.run(
        QuerySpec(protocol="rtp", query=TopKQuery(k=k), tolerance=tolerance),
        workload,
    )

    return FigureResult(
        figure="figure01",
        title="Motivation: value-based vs rank-based tolerance (top-k)",
        x_name="eps (value)",
        x_values=eps_values,
        series={
            "value-eps messages": messages,
            "value-eps worst rank": worst_ranks,
            f"RTP(r={r}) messages": [rtp.maintenance_messages] * len(eps_values),
            f"RTP(r={r}) rank bound": [k + r] * len(eps_values),
        },
        profile=profile,
        meta={
            "k": k,
            "r": r,
            "workload": workload.materialize().metadata,
            "seed": seed,
            "topology": deployment.describe(),
        },
    )
