"""One ``all`` run per (profile, flags), shared by the golden, shape and
``--parallel`` tests."""

from __future__ import annotations

import contextlib
import io
from unittest import mock

import pytest

from repro.experiments.__main__ import main
from repro.experiments.base import FigureResult


@pytest.fixture(scope="session")
def figure_run():
    """``figure_run(profile, *flags)`` -> (stdout, name -> FigureResult) of
    ``python -m repro.experiments all --profile <profile> <flags>``, run
    in-process once per session and read back from the results it
    printed."""
    runs: dict[tuple, tuple[str, dict[str, FigureResult]]] = {}
    format_table = FigureResult.format

    def run(profile: str, *flags: str):
        key = (profile, *flags)
        if key not in runs:
            printed: dict[str, FigureResult] = {}

            def spy(result: FigureResult) -> str:
                printed[result.figure] = result
                return format_table(result)

            out = io.StringIO()
            with mock.patch.object(FigureResult, "format", spy):
                with contextlib.redirect_stdout(out):
                    assert main(["all", "--profile", profile, *flags]) == 0
            runs[key] = (out.getvalue(), printed)
        return runs[key]

    return run
