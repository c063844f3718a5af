"""``repro.api`` — the declarative deployment facade.

A run is a value: *what* is asked (:class:`QuerySpec`), *what happens*
(:class:`Workload`), and *where/how it executes* (:class:`Deployment`).
The :class:`Engine` compiles the triple into an executable plan over the
runtime kernel and returns one unified :class:`RunReport` — ledger,
violations, timing — whichever of the four stacks (scalar streams,
spatial, value-window, multi-query) the spec targets.

The deployment axis is first-class: the same ``(spec, workload)`` pair
runs on one server (``Deployment.single()``) or on a sharded topology
(``Deployment.sharded(n)``) with *byte-identical message ledgers* —
rank queries are served by per-shard incremental rank views merged with
a k-way heap at the coordinator (see ``repro.server.sharded`` for the
argument, and ``tests/api/test_sharded_equivalence.py`` for the proof
obligations).

Quickstart
----------
>>> from repro.api import Deployment, Engine, QuerySpec, Workload
>>> from repro import RangeQuery, FractionTolerance
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

Scaling out is one argument::

    Engine().run(spec, workload, Deployment.sharded(4))
"""

from repro.api.engine import Engine, run
from repro.api.report import RunReport
from repro.api.spec import (
    PROTOCOLS,
    Deployment,
    QuerySpec,
    Workload,
)
from repro.api.sweep import run_grid

__all__ = [
    "Deployment",
    "Engine",
    "PROTOCOLS",
    "QuerySpec",
    "RunReport",
    "Workload",
    "run",
    "run_grid",
]
