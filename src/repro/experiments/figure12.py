"""Figure 12 — FT-NRP: effect of ``eps+``/``eps-`` (synthetic data).

Same grid as Figure 10 but over the Section 6.2 synthetic model
(uniform initial values, exponential update times, Gaussian steps) with
the paper's range query [400, 600].
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
        "eps_values": [0.0, 0.2, 0.4],
    },
    Profile.DEFAULT: {
        "n_streams": 1000,
        "horizon": 400.0,
        "eps_values": [0.0, 0.1, 0.2, 0.3, 0.4],
    },
    Profile.FULL: {
        "n_streams": 5000,
        "horizon": 2000.0,
        "eps_values": [0.0, 0.1, 0.2, 0.3, 0.4, 0.49],
    },
    Profile.SCALE: {
        "n_streams": 10_000,
        "horizon": 400.0,
        "eps_values": [0.0, 0.2, 0.4],
    },
}


def run(
    profile: Profile | str = Profile.DEFAULT,
    seed: int = 0,
    deployment: Deployment | None = None,
) -> FigureResult:
    """Reproduce Figure 12: the eps+/eps- grid on synthetic data."""
    profile = Profile.coerce(profile)
    params = _PROFILES[profile]
    deployment = deployment or Deployment.single()
    engine = Engine(deployment)
    workload = Workload.synthetic(
        n_streams=params["n_streams"],
        horizon=params["horizon"],
        seed=seed,
    )
    query = RangeQuery(*SYNTHETIC_RANGE)
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
        figure="figure12",
        title="FT-NRP: Effect of eps+/eps- (synthetic)",
        x_name="eps+",
        x_values=eps_values,
        series=series,
        profile=profile,
        meta={
            "workload": workload.materialize().metadata,
            "range": SYNTHETIC_RANGE,
            "seed": seed,
            "topology": deployment.describe(),
        },
    )
