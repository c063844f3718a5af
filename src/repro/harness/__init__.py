"""Text renderers for experiment output.

:func:`~repro.harness.reporting.format_table` and
:func:`~repro.harness.reporting.format_series` turn result rows and
figure series into the aligned tables the experiments CLI, the examples
and the benchmarks print.  Running anything is :mod:`repro.api`'s job
(``Engine.run(QuerySpec, Workload, Deployment)`` — DESIGN.md §16).
"""

from repro.harness.reporting import format_series, format_table

__all__ = [
    "format_series",
    "format_table",
]
