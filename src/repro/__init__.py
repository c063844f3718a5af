"""Adaptive stream filters for entity-based queries with non-value tolerance.

A from-scratch reproduction of Cheng, Kao, Prabhakar, Kwan and Tu,
"Adaptive Stream Filters for Entity-based Queries with Non-Value
Tolerance", VLDB 2005.

One front door (DESIGN.md §16): a run is a value —
:class:`~repro.api.QuerySpec` (query + tolerance + protocol),
:class:`~repro.api.Workload` (trace parameters) and
:class:`~repro.api.Deployment` (topology, checking, latency,
durability) — compiled by an :class:`~repro.api.Engine` and returned as
one :class:`~repro.api.RunReport`, whichever of the four stacks serves
it: the paper's scalar filters (``repro.streams``), the spatial
generalization (``repro.spatial``), the Olston-style value windows
(``repro.valuebased``) or the shared multi-query engine
(``repro.multiquery``), all on one runtime kernel (``repro.runtime``).
``Deployment.sharded(n)`` ledgers are byte-identical to the single
server's.  This namespace holds what a caller of that facade constructs
or reads; runtime internals (servers, sessions, sources, state tables,
the ledger, ...) are imported from their packages.

Quickstart
----------
>>> from repro import (
...     Deployment, Engine, FractionTolerance, QuerySpec, RangeQuery,
...     Workload,
... )
>>> report = Engine().run(
...     QuerySpec(
...         protocol="ft-nrp",
...         query=RangeQuery(400.0, 600.0),
...         tolerance=FractionTolerance(eps_plus=0.2, eps_minus=0.2),
...     ),
...     Workload.synthetic(n_streams=100, horizon=200.0, seed=7),
...     Deployment.single(check_every=1),
... )
>>> report.tolerance_ok
True

Scaling out is one argument change: ``Deployment.sharded(4)``.

See ``examples/`` for richer scenarios and ``repro.experiments`` for the
paper's figures.
"""

from repro.api import (
    PROTOCOLS,
    Deployment,
    Engine,
    QuerySpec,
    RunReport,
    Workload,
    run,
    run_grid,
    sweep_values,
)
from repro.harness import format_series, format_table
from repro.network import ExponentialLatency, FixedLatency, UniformLatency
from repro.protocols import (
    BoundaryNearestSelection,
    FractionToleranceKnnProtocol,
    FractionToleranceRangeProtocol,
    NoFilterProtocol,
    RandomSelection,
    RankToleranceProtocol,
    ZeroToleranceKnnProtocol,
    ZeroToleranceRangeProtocol,
)
from repro.queries import KMinQuery, KnnQuery, RangeQuery, TopKQuery
from repro.streams import (
    StreamTrace,
    SyntheticConfig,
    TcpTraceConfig,
    generate_synthetic_trace,
    generate_tcp_trace,
)
from repro.tolerance import FractionTolerance, RankTolerance

__version__ = "2.0.0"

__all__ = [
    "__version__",
    "BoundaryNearestSelection",
    "Deployment",
    "Engine",
    "ExponentialLatency",
    "FixedLatency",
    "format_series",
    "format_table",
    "FractionTolerance",
    "FractionToleranceKnnProtocol",
    "FractionToleranceRangeProtocol",
    "generate_synthetic_trace",
    "generate_tcp_trace",
    "KMinQuery",
    "KnnQuery",
    "NoFilterProtocol",
    "PROTOCOLS",
    "QuerySpec",
    "RandomSelection",
    "RangeQuery",
    "RankTolerance",
    "RankToleranceProtocol",
    "run",
    "run_grid",
    "RunReport",
    "StreamTrace",
    "sweep_values",
    "SyntheticConfig",
    "TcpTraceConfig",
    "TopKQuery",
    "UniformLatency",
    "Workload",
    "ZeroToleranceKnnProtocol",
    "ZeroToleranceRangeProtocol",
]
