"""Figure 10 — FT-NRP: effect of ``eps+``/``eps-`` (TCP data).

A range query [400, 600] over per-subnet bytes-sent values; both
tolerances swept over a grid.  The paper plots a surface; we report one
curve per ``eps-`` value with ``eps+`` on the x-axis.

Expected shape: messages decrease monotonically (modulo noise) in both
tolerances; the (0, 0) corner equals ZT-NRP's cost.
"""

from __future__ import annotations

from repro.api import Deployment, Engine, QuerySpec, Workload
from repro.experiments.base import FigureResult, Profile
from repro.queries.range_query import RangeQuery
from repro.tolerance.fraction_tolerance import FractionTolerance

#: The paper's range query for the TCP experiments.
TCP_RANGE = (400.0, 600.0)

_PROFILES = {
    Profile.SMOKE: {
        "n_subnets": 120,
        "n_connections": 2_500,
        "days": 5.0,
        "eps_values": [0.0, 0.2, 0.4],
    },
    Profile.DEFAULT: {
        "n_subnets": 800,
        "n_connections": 12_000,
        "days": 30.0,
        "eps_values": [0.0, 0.1, 0.2, 0.3, 0.4],
    },
    Profile.FULL: {
        "n_subnets": 800,
        "n_connections": 606_497,
        "days": 30.0,
        "eps_values": [0.0, 0.1, 0.2, 0.3, 0.4, 0.49],
    },
    Profile.SCALE: {
        "n_subnets": 10_000,
        "n_connections": 150_000,
        "days": 30.0,
        "eps_values": [0.0, 0.2, 0.4],
    },
}


def run(
    profile: Profile | str = Profile.DEFAULT,
    seed: int = 0,
    deployment: Deployment | None = None,
) -> FigureResult:
    """Reproduce Figure 10: the eps+/eps- grid on TCP data."""
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
    query = RangeQuery(*TCP_RANGE)
    eps_values = list(params["eps_values"])

    series: dict[str, list[int]] = {}
    for eps_minus in eps_values:
        curve = []
        for eps_plus in eps_values:
            report = engine.run(
                QuerySpec(
                    protocol="ft-nrp",
                    query=query,
                    tolerance=FractionTolerance(eps_plus, eps_minus),
                ),
                workload,
                label=f"e+={eps_plus},e-={eps_minus}",
            )
            curve.append(report.maintenance_messages)
        series[f"eps-={eps_minus}"] = curve

    return FigureResult(
        figure="figure10",
        title="FT-NRP: Effect of eps+/eps- (TCP)",
        x_name="eps+",
        x_values=eps_values,
        series=series,
        profile=profile,
        meta={
            "workload": workload.materialize().metadata,
            "range": TCP_RANGE,
            "seed": seed,
            "topology": deployment.describe(),
        },
    )
