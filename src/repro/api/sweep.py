"""Parameter sweeps over the facade.

Both helpers optionally fan combinations out over a process pool
(``parallel=True``) so figure sweeps use all cores.  Parallel execution
requires *run_one* and its results to be picklable — module-level
functions qualify, lambdas and closures do not — and preserves the
serial iteration order of the results.
"""

from __future__ import annotations

import itertools
import pickle
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Iterable, Mapping


def _invoke(run_one: Callable[..., Any], params: dict) -> Any:
    """Top-level trampoline so submitted calls are picklable."""
    return run_one(**params)


def _execute(
    run_one: Callable[..., Any],
    param_sets: list[dict],
    parallel: bool,
    max_workers: int | None,
) -> list[Any]:
    if not parallel or len(param_sets) <= 1:
        return [run_one(**params) for params in param_sets]
    try:
        pickle.dumps(run_one)
    except Exception as error:
        raise ValueError(
            "parallel sweeps need a picklable run_one (a module-level "
            "function, not a lambda or closure); either refactor it or "
            "drop parallel=True"
        ) from error
    with ProcessPoolExecutor(max_workers=max_workers) as pool:
        futures = [
            pool.submit(_invoke, run_one, params) for params in param_sets
        ]
        return [future.result() for future in futures]


def sweep_values(
    run_one: Callable[..., Any],
    parameter: str,
    values: Iterable[Any],
    *,
    parallel: bool = False,
    max_workers: int | None = None,
) -> list[Any]:
    """Run *run_one* once per value of a single swept *parameter*."""
    param_sets = [{parameter: value} for value in values]
    return _execute(run_one, param_sets, parallel, max_workers)


def run_grid(
    run_one: Callable[..., Any],
    grid: Mapping[str, Iterable[Any]],
    *,
    parallel: bool = False,
    max_workers: int | None = None,
) -> list[dict]:
    """Run the cartesian product of *grid* through *run_one*.

    Returns one dict per combination: the grid coordinates plus a
    ``"result"`` key with whatever *run_one* returned.  Iteration order is
    the natural nested-loop order of the grid's insertion order, so rows
    come out grouped the way the paper's figures group their series —
    with ``parallel=True`` the rows are computed concurrently but
    returned in that same order.
    """
    names = list(grid)
    param_sets = [
        dict(zip(names, combo))
        for combo in itertools.product(*(list(grid[name]) for name in names))
    ]
    results = _execute(run_one, param_sets, parallel, max_workers)
    return [
        {**params, "result": result}
        for params, result in zip(param_sets, results)
    ]
