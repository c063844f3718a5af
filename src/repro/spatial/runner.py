"""Deprecated entry point: the spatial run loop moved to ``repro.api``.

``run_spatial_protocol`` predates the declarative facade; spatial runs
are now the engine's one hosted executor on the spatial vocabulary
(:func:`repro.api.engine._execute_hosted`, DESIGN.md §13).  The shim
keeps the signature and returns the same
:class:`~repro.harness.results.RunResult` the scalar shim does — only a
:class:`DeprecationWarning` is new.
"""

from __future__ import annotations

import warnings

from repro.harness.config import RunConfig
from repro.harness.results import RunResult
from repro.spatial.protocols import SpatialProtocol
from repro.spatial.queries import SpatialKnnQuery, SpatialRangeQuery
from repro.spatial.trace import SpatialTrace
from repro.tolerance.fraction_tolerance import FractionTolerance
from repro.tolerance.rank_tolerance import RankTolerance


def run_spatial_protocol(
    trace: SpatialTrace,
    protocol: SpatialProtocol,
    query: SpatialRangeQuery | SpatialKnnQuery | None = None,
    tolerance: RankTolerance | FractionTolerance | None = None,
    config: RunConfig | None = None,
) -> RunResult:
    """Deprecated: use :class:`repro.api.Engine` with a ``-2d`` spec."""
    warnings.warn(
        "repro.spatial.runner.run_spatial_protocol is deprecated; use "
        "repro.api.Engine().run(QuerySpec(protocol='...-2d', ...), "
        "Workload.from_trace(trace))",
        DeprecationWarning,
        stacklevel=2,
    )
    from repro.api.engine import _execute_spatial
    from repro.api.spec import Deployment

    config = config or RunConfig()
    return _execute_spatial(
        trace,
        protocol,
        query=query,
        tolerance=tolerance,
        deployment=Deployment.from_run_config(config),
        label=config.label,
    )
