"""Figure 11 — FT-NRP: scalability (TCP data).

One master TCP trace is generated for the largest population, then
restricted to each smaller stream count, so every system size replays a
strict subset of the same updates.  The eps+ = eps- = 0 curve is the
ZT-NRP cost.

Expected shape: cost grows with the number of streams for every
tolerance; higher tolerance gives larger absolute savings at larger n.
"""

from __future__ import annotations

from repro.api import Deployment, Engine, QuerySpec, Workload
from repro.experiments.base import FigureResult, Profile
from repro.queries.range_query import RangeQuery
from repro.tolerance.fraction_tolerance import FractionTolerance

TCP_RANGE = (400.0, 600.0)

_PROFILES = {
    Profile.SMOKE: {
        "stream_counts": [60, 120],
        "connections_per_stream": 20,
        "days": 5.0,
        "eps_values": [0.0, 0.3],
    },
    Profile.DEFAULT: {
        "stream_counts": [200, 600, 1000, 1400, 1800],
        "connections_per_stream": 18,
        "days": 30.0,
        "eps_values": [0.0, 0.2, 0.3, 0.4],
    },
    Profile.FULL: {
        "stream_counts": list(range(200, 2001, 200)),
        "connections_per_stream": 300,
        "days": 30.0,
        "eps_values": [0.0, 0.2, 0.3, 0.4, 0.49],
    },
    # The ROADMAP's larger-n sweep: n in {10k, 100k}.
    Profile.SCALE: {
        "stream_counts": [10_000, 100_000],
        "connections_per_stream": 10,
        "days": 30.0,
        "eps_values": [0.0, 0.3],
    },
}


def run(
    profile: Profile | str = Profile.DEFAULT,
    seed: int = 0,
    deployment: Deployment | None = None,
) -> FigureResult:
    """Reproduce Figure 11: message cost versus number of streams."""
    profile = Profile.coerce(profile)
    params = _PROFILES[profile]
    deployment = deployment or Deployment.single()
    engine = Engine(deployment)
    counts = list(params["stream_counts"])
    n_max = max(counts)
    master = Workload.tcp(
        n_subnets=n_max,
        n_connections=n_max * params["connections_per_stream"],
        days=params["days"],
        seed=seed,
    ).materialize()
    query = RangeQuery(*TCP_RANGE)

    series: dict[str, list[int]] = {}
    for eps in params["eps_values"]:
        curve = []
        for n in counts:
            workload = Workload.from_trace(master.restrict_streams(n))
            if eps == 0.0:
                spec = QuerySpec(protocol="zt-nrp", query=query)
            else:
                spec = QuerySpec(
                    protocol="ft-nrp",
                    query=query,
                    tolerance=FractionTolerance(eps, eps),
                )
            report = engine.run(spec, workload, label=f"n={n},eps={eps}")
            curve.append(report.maintenance_messages)
        series[f"eps+=eps-={eps}"] = curve

    return FigureResult(
        figure="figure11",
        title="FT-NRP: Scalability",
        x_name="n_streams",
        x_values=counts,
        series=series,
        profile=profile,
        meta={
            "workload": master.metadata,
            "range": TCP_RANGE,
            "seed": seed,
            "topology": deployment.describe(),
        },
    )
