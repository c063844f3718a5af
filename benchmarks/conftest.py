"""Benchmark configuration.

Each benchmark regenerates one paper figure at the ``default`` profile
(tens of seconds in total), prints the reproduced series, and asserts the
figure's qualitative shape.  ``pedantic(rounds=1)`` is used throughout:
the experiments are deterministic, and a figure's value is its series,
not its wall-clock variance.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.experiments.base import FigureResult, Profile

# The per-event vs batched gates force their arms through the helper
# the differential tests share (tests/replay_forcing.py).
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))


@pytest.fixture(scope="session")
def profile() -> Profile:
    return Profile.DEFAULT


@pytest.fixture
def run_figure(benchmark, profile):
    """Run an experiment once under the benchmark timer and print it."""

    def runner(experiment_fn, **kwargs) -> FigureResult:
        result = benchmark.pedantic(
            experiment_fn,
            kwargs={"profile": profile, **kwargs},
            rounds=1,
            iterations=1,
        )
        print()
        print(result.format())
        return result

    return runner
