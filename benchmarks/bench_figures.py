"""The paper's figures 01 and 09-15, one benchmark per row of the figure
table: each figure runs once at the ``default`` profile under the
benchmark timer, prints its table and must bear out its shape claims
(``tests/experiments/shape_claims.py``)."""

import functools
import sys
from pathlib import Path

import pytest

from repro.experiments import FIGURES, evaluate

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests" / "experiments"))
from shape_claims import CLAIMS  # noqa: E402


@pytest.mark.parametrize("name", list(FIGURES))
def test_figure(run_figure, name):
    result = run_figure(functools.partial(evaluate, name))
    for claim in CLAIMS:
        if claim.figure == name:
            assert claim.holds(result), claim.says
