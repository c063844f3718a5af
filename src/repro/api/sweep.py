"""A parameter grid over the facade.

``parallel=True`` fans the combinations out over a process pool (the
experiments CLI's ``all --parallel`` runs its figures so).  Parallel
execution requires *run_one* and its results to be picklable —
module-level functions qualify, lambdas and closures do not — and
preserves the serial iteration order of the results.
"""

from __future__ import annotations

import itertools
import pickle
from typing import Any, Callable, Iterable, Mapping


def _invoke(run_one: Callable[..., Any], params: dict) -> Any:
    """Top-level trampoline so submitted calls are picklable."""
    return run_one(**params)


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
    if not parallel or len(param_sets) <= 1:
        results = [run_one(**params) for params in param_sets]
    else:
        try:
            pickle.dumps(run_one)
        except Exception as error:
            raise ValueError(
                "parallel sweeps need a picklable run_one (a module-level "
                "function, not a lambda or closure); either refactor it or "
                "drop parallel=True"
            ) from error
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            futures = [
                pool.submit(_invoke, run_one, params) for params in param_sets
            ]
            results = [future.result() for future in futures]
    return [
        {**params, "result": result}
        for params, result in zip(param_sets, results)
    ]
