"""Figure 15 — ZT-RP / FT-RP: effect of ``eps+``/``eps-`` (synthetic data).

A k-NN query around a query point for k in {20, 60, 100}; the x-axis
sweeps the common tolerance, with eps = 0 produced by ZT-RP (to which
FT-RP degenerates).  The paper plots the y-axis in log scale because the
drop from zero tolerance is orders of magnitude.

Expected shape: a steep drop from eps = 0 to small positive tolerance for
the larger k; at k = 20 with small tolerance the protocol buys little
(few silencers, recomputations still frequent) — the paper's "FT-RP is
not suitable in this situation" regime.
"""

from __future__ import annotations

from repro.api import Deployment, Engine, QuerySpec, Workload
from repro.experiments.base import FigureResult, Profile
from repro.queries.knn import KnnQuery
from repro.tolerance.fraction_tolerance import FractionTolerance

#: Query point of the k-NN query (centre of the initial value range).
QUERY_POINT = 500.0

_PROFILES = {
    Profile.SMOKE: {
        "n_streams": 100,
        "horizon": 100.0,
        "k_values": [5, 10],
        "eps_values": [0.0, 0.2, 0.4],
    },
    Profile.DEFAULT: {
        "n_streams": 300,
        "horizon": 200.0,
        "k_values": [20, 60, 100],
        "eps_values": [0.0, 0.1, 0.2, 0.3, 0.4],
    },
    Profile.FULL: {
        "n_streams": 5000,
        "horizon": 2000.0,
        "k_values": [20, 60, 100],
        "eps_values": [0.0, 0.1, 0.2, 0.3, 0.4, 0.49],
    },
    Profile.SCALE: {
        "n_streams": 10_000,
        "horizon": 200.0,
        "k_values": [20, 100],
        "eps_values": [0.0, 0.2, 0.4],
    },
}


def run(
    profile: Profile | str = Profile.DEFAULT,
    seed: int = 0,
    deployment: Deployment | None = None,
) -> FigureResult:
    """Reproduce Figure 15: ZT-RP (eps=0) and FT-RP over the eps sweep."""
    profile = Profile.coerce(profile)
    params = _PROFILES[profile]
    deployment = deployment or Deployment.single()
    engine = Engine(deployment)
    workload = Workload.synthetic(
        n_streams=params["n_streams"],
        horizon=params["horizon"],
        seed=seed,
    )
    eps_values = list(params["eps_values"])

    series: dict[str, list[int]] = {}
    for k in params["k_values"]:
        query = KnnQuery(QUERY_POINT, k)
        curve = []
        for eps in eps_values:
            if eps == 0.0:
                spec = QuerySpec(protocol="zt-rp", query=query)
            else:
                spec = QuerySpec(
                    protocol="ft-rp",
                    query=query,
                    tolerance=FractionTolerance(eps, eps),
                )
            report = engine.run(spec, workload, label=f"k={k},eps={eps}")
            curve.append(report.maintenance_messages)
        series[f"k={k}"] = curve

    return FigureResult(
        figure="figure15",
        title="ZT-RP/FT-RP: Effect of eps+/eps-",
        x_name="eps+/eps-",
        x_values=eps_values,
        series=series,
        profile=profile,
        meta={
            "workload": workload.materialize().metadata,
            "query_point": QUERY_POINT,
            "seed": seed,
            "topology": deployment.describe(),
        },
    )
