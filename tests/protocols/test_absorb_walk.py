"""FT-NRP's absorb: the scalar walk and the running sum are one rule.

``absorb_reports`` walks a short span's reports as Python scalars
(``absorb_walked``) and takes the running sum past
``ABSORB_WALK_MAX`` (``absorb_summed``; DESIGN.md §9).  Both apply
Figure 7's ``count`` slack from the protocol's answer size and fitting
size: a leave-report that leaves the answer below the fitting size, or
finds ``count == 0`` while there is something to spend, stops the span
unabsorbed; else ``count`` steps with each report, clamped at zero.
The property holds the two forms to the same absorbed prefix and the
same ``count`` after, from the state a protocol would hand them; the
examples pin the two boundaries a form can get wrong — the clamp at
zero and the strict ``<`` at the fitting size.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.protocols import ft_nrp
from repro.protocols.ft_nrp import (
    ABSORB_WALK_MAX,
    FractionToleranceRangeProtocol,
    absorb_summed,
    absorb_walked,
)
from repro.queries.range_query import RangeQuery
from repro.state.table import StreamStateTable
from repro.tolerance.fraction_tolerance import FractionTolerance


def _protocol(answer_size, n_plus, n_minus, count, reinitialize, n_streams=400):
    """A protocol mid-maintenance: an answer of *answer_size*, pools of
    *n_plus* / *n_minus* silencers and slack *count* (budgets at 0.2)."""
    protocol = FractionToleranceRangeProtocol(
        RangeQuery(400.0, 600.0),
        FractionTolerance(0.2, 0.2),
        reinitialize_when_exhausted=reinitialize,
    )
    table = StreamStateTable(n_streams)
    table.answer_set_mask(np.arange(n_streams) < answer_size)
    protocol._state = table
    protocol._pools.reset(range(n_plus), range(n_plus, n_plus + n_minus))
    protocol._count = count
    return protocol


@given(
    entering=st.lists(st.booleans(), max_size=300),
    count=st.integers(0, 40),
    answer_size=st.integers(0, 200),
    n_plus=st.integers(0, 12),
    n_minus=st.integers(0, 12),
    reinitialize=st.booleans(),
)
# Both pools spent: the slack clamps at zero and the walk goes on.
@example([False, False, True, False], 1, 150, 0, 0, False)
# A leave that lands exactly on the fitting size is absorbed; one below stops.
@example([False, True, False, False], 5, 26, 5, 0, False)
@settings(max_examples=800, deadline=None)
def test_the_walk_is_the_running_sum(
    entering, count, answer_size, n_plus, n_minus, reinitialize
):
    protocol = _protocol(answer_size, n_plus, n_minus, count, reinitialize)
    fitting = protocol._smallest_fitting_size()
    spend = bool(n_plus or n_minus or reinitialize)
    sides = np.array(entering, dtype=bool)
    state = (answer_size, count, fitting, spend)
    assert absorb_walked(sides, *state) == absorb_summed(sides, *state)


def test_the_examples_sit_on_the_boundaries():
    """The clamp example needs both pools spent, the fitting-size one an
    answer one above the fitting size: a change to the budgets that
    moves them off their boundary would make them vacuous."""
    spent = _protocol(150, 0, 0, 1, False)
    assert spent._smallest_fitting_size() == 0
    sides = np.array([False, False, True, False])
    assert absorb_walked(sides, 150, 1, 0, False) == (4, 0)
    pinned = _protocol(26, 5, 0, 5, False)
    assert pinned._smallest_fitting_size() == 25
    sides = np.array([False, True, False, False])
    assert absorb_walked(sides, 26, 5, 25, True) == (3, 4)


def test_absorb_reports_walks_a_short_span_and_sums_a_long_one(monkeypatch):
    calls = []
    for name in ("absorb_walked", "absorb_summed"):
        form = getattr(ft_nrp, name)
        monkeypatch.setattr(
            ft_nrp, name, lambda *a, _f=form, _n=name: calls.append(_n) or _f(*a)
        )
    rng = np.random.default_rng(1)
    for n in (1, ABSORB_WALK_MAX, ABSORB_WALK_MAX + 1, 4 * ABSORB_WALK_MAX):
        protocol = _protocol(100, 4, 4, 0, False)
        sides = rng.random(n) < 0.5
        sides[0] = False  # a leave at count == 0 with pools to spend: no O(1) pass
        reference = _protocol(100, 4, 4, 0, False)
        fitting = reference._smallest_fitting_size()
        expected = absorb_summed(sides, 100, 0, fitting, True)
        assert (protocol.absorb_reports(sides), protocol.count) == expected
    assert calls == ["absorb_walked"] * 2 + ["absorb_summed"] * 2
