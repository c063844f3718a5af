"""Figure 13 — FT-NRP: data fluctuation (synthetic data).

Sweeps the Gaussian step deviation sigma; one curve per sigma with the
common tolerance ``eps+ = eps-`` on the x-axis.

Expected shape: more fluctuation, more boundary crossings, more messages
at every tolerance level; curves are vertically ordered by sigma.
"""

from __future__ import annotations

from repro.api import Deployment, Engine, QuerySpec, Workload
from repro.experiments.base import FigureResult, Profile
from repro.queries.range_query import RangeQuery
from repro.tolerance.fraction_tolerance import FractionTolerance

SYNTHETIC_RANGE = (400.0, 600.0)

_PROFILES = {
    Profile.SMOKE: {
        "n_streams": 150,
        "horizon": 150.0,
        "sigma_values": [20.0, 80.0],
        "eps_values": [0.0, 0.3],
    },
    Profile.DEFAULT: {
        "n_streams": 800,
        "horizon": 300.0,
        "sigma_values": [20.0, 40.0, 60.0, 80.0, 100.0],
        "eps_values": [0.0, 0.1, 0.2, 0.3, 0.4],
    },
    Profile.FULL: {
        "n_streams": 5000,
        "horizon": 2000.0,
        "sigma_values": [20.0, 40.0, 60.0, 80.0, 100.0],
        "eps_values": [0.0, 0.1, 0.2, 0.3, 0.4, 0.49],
    },
    Profile.SCALE: {
        "n_streams": 10_000,
        "horizon": 300.0,
        "sigma_values": [20.0, 80.0],
        "eps_values": [0.0, 0.3],
    },
}


def run(
    profile: Profile | str = Profile.DEFAULT,
    seed: int = 0,
    deployment: Deployment | None = None,
) -> FigureResult:
    """Reproduce Figure 13: message cost versus data fluctuation."""
    profile = Profile.coerce(profile)
    params = _PROFILES[profile]
    deployment = deployment or Deployment.single()
    engine = Engine(deployment)
    query = RangeQuery(*SYNTHETIC_RANGE)
    eps_values = list(params["eps_values"])

    series: dict[str, list[int]] = {}
    for sigma in params["sigma_values"]:
        workload = Workload.synthetic(
            n_streams=params["n_streams"],
            horizon=params["horizon"],
            sigma=sigma,
            seed=seed,
        )
        curve = []
        for eps in eps_values:
            if eps == 0.0:
                spec = QuerySpec(protocol="zt-nrp", query=query)
            else:
                spec = QuerySpec(
                    protocol="ft-nrp",
                    query=query,
                    tolerance=FractionTolerance(eps, eps),
                )
            report = engine.run(
                spec, workload, label=f"sigma={sigma},eps={eps}"
            )
            curve.append(report.maintenance_messages)
        series[f"sigma={sigma:g}"] = curve

    return FigureResult(
        figure="figure13",
        title="FT-NRP: Data fluctuation",
        x_name="eps+/eps-",
        x_values=eps_values,
        series=series,
        profile=profile,
        meta={
            "n_streams": params["n_streams"],
            "horizon": params["horizon"],
            "range": SYNTHETIC_RANGE,
            "seed": seed,
            "topology": deployment.describe(),
        },
    )
