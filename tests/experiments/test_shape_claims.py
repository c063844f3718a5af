"""The paper's shape claims (``shape_claims.CLAIMS``) hold on the golden
runs' results: ``smoke`` and ``default`` in tier-1, ``full`` in CI's slow
lane.  No figure runs here that ``test_golden_figures.py`` does not
run too: both read the session's one run per profile."""

from __future__ import annotations

import pytest
from shape_claims import CLAIMS

from repro.experiments import FIGURES


@pytest.mark.parametrize(
    "profile", ["smoke", "default", pytest.param("full", marks=pytest.mark.slow)]
)
@pytest.mark.parametrize(
    "claim", CLAIMS, ids=[f"{claim.figure}: {claim.says}" for claim in CLAIMS]
)
def test_claim_holds(claim, profile, figure_run):
    _, results = figure_run(profile)
    assert claim.holds(results[claim.figure]), claim.says


def test_every_figure_has_a_claim():
    assert sorted({claim.figure for claim in CLAIMS}) == sorted(FIGURES)
