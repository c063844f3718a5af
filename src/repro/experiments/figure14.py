"""Figure 14 — FT-NRP: silencer selection heuristics (synthetic data).

Compares random against boundary-nearest placement of the false-positive
and false-negative filters during initialization.

Expected shape: boundary-nearest at or below random everywhere, with the
gap widening as tolerance (and hence the number of silencers placed)
grows.
"""

from __future__ import annotations

from repro.api import Deployment, Engine, QuerySpec, Workload
from repro.experiments.base import FigureResult, Profile
from repro.protocols.selection import BoundaryNearestSelection, RandomSelection
from repro.queries.range_query import RangeQuery
from repro.tolerance.fraction_tolerance import FractionTolerance

SYNTHETIC_RANGE = (400.0, 600.0)

_PROFILES = {
    Profile.SMOKE: {
        "n_streams": 200,
        "horizon": 150.0,
        "eps_values": [0.1, 0.4],
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
        "eps_values": [0.1, 0.4],
    },
}


def run(
    profile: Profile | str = Profile.DEFAULT,
    seed: int = 0,
    deployment: Deployment | None = None,
) -> FigureResult:
    """Reproduce Figure 14: random vs boundary-nearest selection."""
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

    heuristics = {
        "random": lambda: RandomSelection(seed=seed),
        "boundary-nearest": lambda: BoundaryNearestSelection(),
    }
    series: dict[str, list[int]] = {}
    for name, make_heuristic in heuristics.items():
        curve = []
        for eps in eps_values:
            report = engine.run(
                QuerySpec(
                    protocol="ft-nrp",
                    query=query,
                    tolerance=FractionTolerance(eps, eps),
                    options={"selection": make_heuristic()},
                ),
                workload,
                label=f"{name},eps={eps}",
            )
            curve.append(report.maintenance_messages)
        series[name] = curve

    return FigureResult(
        figure="figure14",
        title="FT-NRP: Selection heuristics",
        x_name="eps+/eps-",
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
