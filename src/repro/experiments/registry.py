"""Registry of the reproducible figures.

Every runner is a pure function of ``(profile, seed, deployment)``;
``deployment=Deployment.sharded(n)`` re-runs a figure on the sharded
topology (ledgers byte-identical to single-server — the sharded
coordinator's contract).
"""

from __future__ import annotations

from typing import Callable

from repro.api import Deployment
from repro.experiments import (
    figure01,
    figure09,
    figure10,
    figure11,
    figure12,
    figure13,
    figure14,
    figure15,
)
from repro.experiments.base import FigureResult, Profile

#: Experiment id -> (runner, paper caption).
REGISTRY: dict[str, tuple[Callable[..., FigureResult], str]] = {
    "figure01": (
        figure01.run,
        "Motivation: value-based vs rank-based tolerance",
    ),
    "figure09": (figure09.run, "RTP: Effect of r (TCP)"),
    "figure10": (figure10.run, "FT-NRP: Effect of eps+/eps- (TCP)"),
    "figure11": (figure11.run, "FT-NRP: Scalability (TCP)"),
    "figure12": (figure12.run, "FT-NRP: Effect of eps+/eps- (synthetic)"),
    "figure13": (figure13.run, "FT-NRP: Data fluctuation (synthetic)"),
    "figure14": (figure14.run, "FT-NRP: Selection heuristics (synthetic)"),
    "figure15": (figure15.run, "ZT-RP/FT-RP: Effect of eps+/eps- (synthetic)"),
}


def list_experiments() -> list[str]:
    """All experiment ids, in paper order."""
    return list(REGISTRY)


def get_experiment(name: str) -> Callable[..., FigureResult]:
    """The runner for *name*; raises ``KeyError`` with suggestions."""
    if name not in REGISTRY:
        known = ", ".join(REGISTRY)
        raise KeyError(f"unknown experiment {name!r}; choose one of: {known}")
    return REGISTRY[name][0]


def run_all(
    profile: Profile | str = Profile.DEFAULT,
    seed: int = 0,
    parallel: bool = False,
    max_workers: int | None = None,
    deployment: Deployment | None = None,
) -> dict[str, FigureResult]:
    """Run every experiment; returns id -> result.

    With ``parallel=True`` the figures run concurrently on a process
    pool (each experiment is already a deterministic, self-contained
    function), in registry order.  *deployment* selects the topology
    for every figure.
    """
    kwargs = {"profile": profile, "seed": seed, "deployment": deployment}
    if not parallel:
        return {
            name: runner(**kwargs) for name, (runner, _) in REGISTRY.items()
        }
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=max_workers) as pool:
        futures = {
            name: pool.submit(runner, **kwargs)
            for name, (runner, _) in REGISTRY.items()
        }
        return {name: future.result() for name, future in futures.items()}
