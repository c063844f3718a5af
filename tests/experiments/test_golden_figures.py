"""The paper's figures, pinned byte for byte at three profiles.

``golden_<profile>.txt`` is ``python -m repro.experiments all --profile
<profile>`` without its wall-clock line.  Every table is a function of
the seed only, so a trace generator, replay path or protocol change that
moves one message count shows here as a diff of that figure's table.
``smoke`` and ``default`` run in tier-1; ``full`` (about two minutes on
two cores) is marked ``slow`` and runs in CI's ``figures-full`` job::

    PYTHONPATH=src python -m pytest -m slow tests/experiments
"""

from __future__ import annotations

from pathlib import Path
from unittest import mock

import pytest

HERE = Path(__file__).parent
PROFILES = ["smoke", "default", pytest.param("full", marks=pytest.mark.slow)]


def tables(out: str) -> str:
    lines = out.splitlines(keepends=True)
    return "".join(line for line in lines if not line.startswith("(total "))


@pytest.mark.parametrize("profile", PROFILES)
def test_profile_reproduces_the_golden_tables(profile, figure_run):
    out, _ = figure_run(profile)
    assert tables(out) == (HERE / f"golden_{profile}.txt").read_text()


def test_parallel_prints_the_sequential_tables(figure_run):
    """``all --parallel`` evaluates the figures on a process pool and
    prints them in table order, byte for byte as the sequential run."""
    from concurrent.futures import ProcessPoolExecutor

    with mock.patch(
        "concurrent.futures.ProcessPoolExecutor", wraps=ProcessPoolExecutor
    ) as pool:
        parallel, _ = figure_run("smoke", "--parallel")
    assert pool.called
    sequential, _ = figure_run("smoke")
    assert tables(parallel) == tables(sequential)
