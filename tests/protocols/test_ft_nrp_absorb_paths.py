"""FT-NRP's absorb fast paths against the forms they replaced (DESIGN.md §9).

``absorb_reports`` finds the smallest answer size at which both silencer
budgets fit in closed form, settled by the scalar budget tests, and
absorbs a chunk with no running sum when even every leave-report first
could not stop it.  The references below are the replaced forms, kept
as they were: a bisection of the scalar tests over ``[0, n_streams]``
and the running-sum prefix.  The scalar ``on_update`` loop stays the
oracle of both (``test_ft_nrp.py``).
"""

from bisect import bisect_left

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.protocols.ft_nrp import FractionToleranceRangeProtocol
from repro.queries.range_query import RangeQuery
from repro.state.table import StreamStateTable
from repro.tolerance.fraction_tolerance import FractionTolerance

QUERY = RangeQuery(400.0, 600.0)

EPS = st.one_of(
    st.sampled_from([0.0, 1e-12, 0.1, 0.2, 0.3, 0.45, 0.4999]),
    st.floats(0.0, 0.4999),
)


def _protocol(
    eps_plus, eps_minus, n_streams, n_plus, n_minus, answer_size=0, count=0,
    reinitialize=False,
):
    """A protocol mid-maintenance over an *n_streams* table with an
    answer of *answer_size* and pools of *n_plus* / *n_minus* silencers
    (unbound: only the pool sizes matter here)."""
    protocol = FractionToleranceRangeProtocol(
        QUERY,
        FractionTolerance(eps_plus, eps_minus),
        reinitialize_when_exhausted=reinitialize,
    )
    table = StreamStateTable(n_streams)
    table.answer_set_mask(np.arange(n_streams) < answer_size)
    protocol._state = table
    protocol._pools.reset(range(n_plus), range(n_plus, n_plus + n_minus))
    protocol._count = count
    return protocol


def bisected_fitting_size(protocol) -> int:
    """The replaced search: bisect the scalar tests over every size."""
    pools = protocol._pools
    return bisect_left(
        range(protocol._state.n_streams + 1),
        True,
        key=lambda s: (not pools.fp or protocol._fp_budget_ok(s))
        and (not pools.fn or protocol._fn_budget_ok(s)),
    )


def summed_absorb(protocol, entering) -> tuple[int, int]:
    """The replaced absorb, always the running sum: ``(absorbed, count
    after)``, leaving *protocol* untouched."""
    pools, size, n = protocol._pools, protocol._state.answer_size, len(entering)
    fitting = bisected_fitting_size(protocol)
    steps = np.cumsum(np.where(entering, 1, -1))
    stop = ~entering & (size + steps < fitting)
    if pools.fp or pools.fn or protocol.reinitialize_when_exhausted:
        stop |= protocol.count + steps < 0
    absorbed = int(stop.argmax()) if stop.any() else n
    count = protocol.count
    if absorbed:
        slack = count + steps[:absorbed]
        count = int(slack[-1]) - min(0, int(slack.min()))
    return absorbed, count


@given(
    eps_plus=EPS,
    eps_minus=EPS,
    n_streams=st.integers(0, 3000),
    n_plus=st.integers(0, 300),
    n_minus=st.integers(0, 300),
)
@example(0.0, 0.0, 0, 0, 0)  # n = 0, empty pools
@example(0.2, 0.2, 0, 1, 1)  # n = 0 with pools: nothing fits
@example(0.2, 0.2, 100, 0, 0)  # empty pools fit at 0
@example(0.0, 0.2, 100, 3, 0)  # eps+ = 0 with an FP pool never fits
@example(0.2, 0.0, 100, 0, 3)  # eps- = 0 with an FN pool never fits
@example(0.1, 0.1, 1000, 3, 3)  # 0.1 * 30 rounds above 3: the 1e-9 decides
@example(0.2, 0.2, 10, 2, 0)  # the bound is exactly n_streams
@example(0.2, 0.2, 9, 2, 0)  # ... one past it
# eps one rounding away from n / size: the ceil lands one short ...
@example(0.1999999998, 0.2, 15, 1, 0)
@example(0.2, 0.1428571427142857, 17, 0, 1)
# ... or one past, and the scalar tests settle it.
@example(0.09677419351612902, 0.2, 41, 3, 0)
@example(0.2, 0.19999999993333334, 25, 0, 3)
@settings(max_examples=600, deadline=None)
def test_closed_form_fitting_size_is_the_bisection(
    eps_plus, eps_minus, n_streams, n_plus, n_minus
):
    protocol = _protocol(eps_plus, eps_minus, n_streams, n_plus, n_minus)
    assert protocol._smallest_fitting_size() == bisected_fitting_size(protocol)


def test_the_fitting_size_never_walks_the_population():
    """Zero tolerances, empty pools and a million streams: a handful of
    scalar tests each, not a walk over ``[0, n]``."""
    for eps_plus, eps_minus, n_plus, n_minus in [
        (0.0, 0.0, 5, 5),
        (0.0, 0.2, 5, 0),
        (0.2, 0.0, 0, 5),
        (0.2, 0.2, 0, 0),
        (0.2, 0.2, 400, 300),
        (1e-12, 0.3, 1, 1),
    ]:
        protocol = _protocol(eps_plus, eps_minus, 1_000_000, n_plus, n_minus)
        calls = []
        fits = protocol._budgets_fit
        protocol._budgets_fit = lambda size: calls.append(size) or fits(size)
        size = protocol._smallest_fitting_size()
        assert size == bisected_fitting_size(protocol)
        assert len(calls) <= 4, (eps_plus, eps_minus, n_plus, n_minus)


@given(
    eps_plus=EPS,
    eps_minus=EPS,
    answer_size=st.integers(0, 60),
    n_plus=st.integers(0, 8),
    n_minus=st.integers(0, 8),
    count=st.integers(0, 12),
    reinitialize=st.booleans(),
    entering=st.lists(st.booleans(), max_size=120),
)
# Every report quiet with slack to spare: the no-running-sum path.
@example(0.2, 0.2, 50, 2, 2, 8, False, [True, False] * 4 + [False] * 3)
# ... one leave past the slack: the running sum decides.
@example(0.2, 0.2, 50, 2, 2, 2, False, [False] * 3 + [True] * 4)
# Empty pools, no reinitialization: count clamps at zero.
@example(0.2, 0.2, 50, 0, 0, 1, False, [False] * 4 + [True] * 2)
@example(0.2, 0.2, 10, 2, 2, 0, False, [])
@settings(max_examples=500, deadline=None)
def test_absorb_is_the_running_sum_prefix(
    eps_plus, eps_minus, answer_size, n_plus, n_minus, count, reinitialize,
    entering,
):
    shape = (eps_plus, eps_minus, 100, n_plus, n_minus, answer_size, count,
             reinitialize)
    sides = np.array(entering, dtype=bool)
    expected = summed_absorb(_protocol(*shape), sides)
    subject = _protocol(*shape)
    assert (subject.absorb_reports(sides), subject.count) == expected
