"""Extension bench — multi-query sharing vs independent deployments.

Quantifies the Section-7 extension: four users watch the same zone with
different error budgets.  Independent deployments pay for each user's
filter violations separately; the shared deployment sends one physical
update per violating value change, fanned out server-side.
"""

from repro.harness.reporting import format_table
from repro.api import Engine, QuerySpec, Workload
from repro.queries.range_query import RangeQuery
from repro.streams.synthetic import SyntheticConfig, generate_synthetic_trace
from repro.tolerance.fraction_tolerance import FractionTolerance

TOLERANCES = [0.0, 0.1, 0.2, 0.4]


def _make_specs():
    specs = {}
    for i, eps in enumerate(TOLERANCES):
        query = RangeQuery(400.0, 600.0)
        if eps == 0.0:
            specs[f"user{i}"] = QuerySpec("zt-nrp", query)
        else:
            specs[f"user{i}"] = QuerySpec(
                "ft-nrp", query, FractionTolerance(eps, eps)
            )
    return specs


def _run_comparison():
    workload = Workload.from_trace(
        generate_synthetic_trace(
            SyntheticConfig(n_streams=400, horizon=400.0, seed=3)
        )
    )
    engine = Engine()
    shared = engine.run_queries(_make_specs(), workload)
    independent = sum(
        engine.run(spec, workload).maintenance_messages
        for spec in _make_specs().values()
    )
    return shared, independent


def test_extension_multiquery_sharing(benchmark):
    shared, independent = benchmark.pedantic(
        _run_comparison, rounds=1, iterations=1
    )
    print()
    print(
        format_table(
            [
                {
                    "deployment": "independent (4 systems)",
                    "messages": independent,
                    "sharing factor": 1.0,
                },
                {
                    "deployment": "shared (multi-query)",
                    "messages": shared.maintenance_messages,
                    "sharing factor": round(shared.extras["sharing_factor"], 2),
                },
            ],
            title="Extension — four users, one zone, shared sources",
        )
    )
    assert shared.maintenance_messages < independent
    assert shared.extras["sharing_factor"] > 1.5
