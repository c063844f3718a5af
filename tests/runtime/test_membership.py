"""Unit tests for the populations' membership rules (DESIGN.md §18, §20).

The interval, window and slot cases were written against the per-stream
strategy objects the populations replaced; each is re-expressed here
against a population's planes.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.multiquery.source import QueryProbeMessage, SlotPopulation
from repro.runtime.membership import (
    BELIEF_INSIDE,
    BELIEF_NONE,
    BELIEF_OUTSIDE,
    deployment_outcome,
    deployment_outcome_columns,
)
from repro.network.accounting import MessageLedger
from repro.network.channel import Channel
from repro.network.messages import ConstraintMessage, ProbeRequestMessage
from repro.state.table import StreamStateTable
from repro.streams.filters import (
    FALSE_NEGATIVE_FILTER,
    FALSE_POSITIVE_FILTER,
    FilterConstraint,
)
from repro.streams.source import ScalarPopulation
from repro.valuebased.source import WindowFilterSource

#: What a row step returned when it sent a plain report.
REPORT = "report"


class _Row:
    """One row of a :class:`ScalarPopulation` driven the way the deleted
    ``IntervalMembership`` strategy was: the interval cases below are
    that class's, re-expressed against a population of one."""

    def __init__(self, value=0.0):
        self.channel = Channel(MessageLedger())
        self.reports = []
        self.channel.bind_server(self.reports.append)
        self.population = ScalarPopulation([value], [self.channel], [(0, 1)])

    def evaluate(self, value):
        """``REPORT`` iff applying *value* sent a report."""
        before = len(self.reports)
        self.population.apply(0, value, 1.0)
        return REPORT if len(self.reports) > before else None

    def install(self, constraint, assumed_inside, value) -> bool:
        """Deploy *constraint* at a source holding *value*; ``True`` iff
        the source self-corrected."""
        self.population.values[0] = value
        before = len(self.reports)
        self.channel.send_to_source(
            ConstraintMessage(
                0, 0.0, constraint.lower, constraint.upper, assumed_inside
            )
        )
        return len(self.reports) > before

    def resync(self, value) -> None:
        self.population.values[0] = value
        self.channel.send_to_source(ProbeRequestMessage(0, 0.0))

    @property
    def reported_inside(self) -> bool:
        return self.population[0].reported_inside

    def quiescence_rows(self):
        source = self.population[0]
        if source.constraint is None:
            return None
        return [
            (source.constraint.lower, source.constraint.upper,
             source.reported_inside)
        ]


class TestIntervalMembership:
    def test_no_constraint_reports_everything(self):
        m = _Row()
        assert m.evaluate(1.0) is REPORT
        assert m.evaluate(1.0) is REPORT  # even unchanged values

    def test_reports_only_on_flip(self):
        m = _Row()
        m.install(FilterConstraint(0.0, 10.0), None, 5.0)
        assert m.evaluate(7.0) is None       # inside -> inside
        assert m.evaluate(12.0) is REPORT    # crossed out
        assert m.evaluate(20.0) is None      # outside -> outside
        assert m.evaluate(3.0) is REPORT     # crossed back in

    def test_stale_belief_demands_self_correction(self):
        m = _Row()
        assert m.install(FilterConstraint(0.0, 10.0), True, 15.0) is True
        assert m.reported_inside is False  # corrected

    def test_correct_belief_stays_silent(self):
        m = _Row()
        assert m.install(FilterConstraint(0.0, 10.0), False, 15.0) is False

    def test_silencing_filters_never_flip(self):
        for constraint in (FALSE_POSITIVE_FILTER, FALSE_NEGATIVE_FILTER):
            m = _Row()
            assert m.install(constraint, True, 5.0) is False
            for value in (0.0, 1e9, -1e9):
                assert m.evaluate(value) is None

    def test_resync_aligns_belief(self):
        m = _Row()
        m.install(FilterConstraint(0.0, 10.0), None, 5.0)
        m.population.inside[0] = False  # simulate stale state
        m.resync(5.0)
        assert m.reported_inside is True

    def test_quiescence_rows(self):
        m = _Row()
        assert m.quiescence_rows() is None  # bare stream: never quiescent
        m.install(FilterConstraint(2.0, 8.0), None, 5.0)
        assert m.quiescence_rows() == [(2.0, 8.0, True)]


class _Window:
    """A one-row :class:`WindowPopulation` bound to a state table."""

    def __init__(self, width, center):
        self.channel = Channel(MessageLedger())
        self.reports = []
        self.channel.bind_server(self.reports.append)
        self.source = WindowFilterSource(0, center, self.channel, width=width)
        self.population = self.source._population
        self.table = StreamStateTable(1)
        self.population.bind_state(self.table)

    def evaluate(self, value):
        before = len(self.reports)
        self.source.apply_value(value, 1.0)
        return REPORT if len(self.reports) > before else None

    def rows(self):
        """The window as the pre-scan reads it: the table's bounds."""
        table = self.table
        assert table.lower[0] == self.population.lower[0]
        assert table.upper[0] == self.population.upper[0]
        return [(table.lower[0], table.upper[0], bool(table.inside[0]))]


class TestRecenteringWindow:
    def test_negative_width_rejected(self):
        with pytest.raises(ValueError):
            _Window(width=-1.0, center=0.0)

    def test_report_recenters(self):
        m = _Window(width=10.0, center=10.0)
        assert m.evaluate(14.0) is None
        assert m.evaluate(16.0) is REPORT
        assert m.source.center == 16.0
        assert m.evaluate(20.0) is None  # inside the recentred window

    def test_probe_recenters(self):
        m = _Window(width=10.0, center=10.0)
        m.population.values[0] = 40.0
        m.channel.send_to_source(ProbeRequestMessage(0, 1.0))
        assert m.reports[-1].value == 40.0
        assert m.source.center == 40.0
        assert m.rows() == [(35.0, 45.0, True)]

    def test_deployments_rejected(self):
        m = _Window(width=1.0, center=0.0)
        with pytest.raises(RuntimeError):
            m.channel.send_to_source(ConstraintMessage(0, 0.0, 0.0, 1.0))

    def test_rows_follow_center(self):
        m = _Window(width=10.0, center=10.0)
        assert m.rows() == [(5.0, 15.0, True)]
        m.evaluate(30.0)
        assert m.rows() == [(25.0, 35.0, True)]

    def test_evaluate_agrees_with_rows_at_fp_boundaries(self):
        """Regression: abs(v - c) > w/2 and the closed-interval bound
        disagree by one ulp for e.g. c=0.3, w=0.2, v=0.4; the row step
        must use the rows' predicate or batch replay drops a report."""
        for v in (0.4, 0.2, 0.1 + 0.3, 0.30000000000000004):
            m = _Window(width=0.2, center=0.3)
            ((lower, upper, _),) = m.rows()
            quiescent_by_rows = lower <= v <= upper
            reported = m.evaluate(v) is not None
            assert reported != quiescent_by_rows, v


class _Slots:
    """A :class:`SlotPopulation` of *n* rows on a channel whose server
    end records what it is sent; slot ``"a"`` is bound to a state table
    and slot ``"b"`` keeps its own planes."""

    def __init__(self, values=(5.0,)):
        self.received = []
        self.channel = channel = Channel(MessageLedger())
        channel.bind_server(self.received.append)
        self.table = StreamStateTable(len(values))
        self.population = SlotPopulation(
            values, [channel], [(0, len(values))], ("a", "b")
        )
        self.population.bind_state(self.table)

    def install(self, query_id, constraint, assumed_inside=None, row=0):
        self.population.install(
            row, query_id, constraint.lower, constraint.upper, assumed_inside, 0.0
        )

    def probe(self, query_id, row=0):
        """Send *query_id*'s probe to *row*; returns the replied value."""
        self.channel.send_to_source(QueryProbeMessage(row, 0.0, query=query_id))
        return self.received[-1].value

    def evaluate(self, value, row=0):
        before = len(self.received)
        self.population.apply(row, value, 1.0)
        if len(self.received) == before:
            return None
        queries = self.received[-1].queries
        return REPORT if queries is None else list(queries)

    def inside(self, query_id, row=0):
        return bool(self.population.slots[query_id].inside[row])


class TestSlotPopulation:
    def test_bare_source_notifies_everyone(self):
        assert _Slots().evaluate(1.0) is REPORT

    def test_only_flipped_slots_tagged(self):
        m = _Slots()
        m.install("a", FilterConstraint(0.0, 10.0))
        m.install("b", FilterConstraint(7.0, 20.0))
        assert m.evaluate(8.0) == ["b"]   # enters b, stays in a
        assert m.evaluate(12.0) == ["a"]  # leaves a, stays in b
        assert m.evaluate(13.0) is None   # nothing flips

    def test_tags_follow_each_rows_own_install_order(self):
        m = _Slots(values=(5.0, 5.0))
        m.install("a", FilterConstraint(0.0, 10.0), row=0)
        m.install("b", FilterConstraint(0.0, 10.0), row=0)
        m.install("b", FilterConstraint(0.0, 10.0), row=1)
        m.install("a", FilterConstraint(0.0, 10.0), row=1)
        m.install("a", FilterConstraint(0.0, 11.0), row=1)  # a reinstall
        assert m.evaluate(50.0, row=0) == ["a", "b"]
        assert m.evaluate(50.0, row=1) == ["b", "a"]

    def test_silencing_slots_skipped(self):
        m = _Slots()
        m.install("a", FALSE_POSITIVE_FILTER)
        assert m.evaluate(1e9) is None
        # [+inf, +inf] holds +inf itself, yet never flips: it is skipped.
        m.install("b", FALSE_NEGATIVE_FILTER)
        m.population.values[0] = math.inf
        m.probe("b")
        assert m.inside("b")
        assert m.evaluate(5.0) is None

    def test_slot_planes_write_through(self):
        m = _Slots()
        m.install("a", FilterConstraint(0.0, 10.0))
        m.install("b", FilterConstraint(7.0, 20.0))
        a, b = m.population.slots["a"], m.population.slots["b"]
        assert (a.lower[0], a.upper[0], m.inside("a")) == (0.0, 10.0, True)
        assert (b.lower[0], b.upper[0], m.inside("b")) == (7.0, 20.0, False)
        # Only the query with a table is mirrored.
        table = m.table
        assert (table.lower[0], table.upper[0], table.inside[0]) == (0.0, 10.0, True)
        assert table.scannable[0]
        m.evaluate(12.0)
        assert not table.inside[0]

    def test_stale_slot_belief_self_corrects(self):
        m = _Slots()
        m.install("a", FilterConstraint(0.0, 10.0), assumed_inside=False)
        (message,) = m.received
        assert (message.stream_id, message.value, message.queries) == (0, 5.0, ("a",))
        assert m.inside("a")
        assert m.table.inside[0]

    def test_probe_resyncs_only_that_slot(self):
        m = _Slots()
        m.install("a", FilterConstraint(0.0, 10.0))
        m.install("b", FilterConstraint(0.0, 10.0))
        m.population.slots["a"].inside[0] = False
        m.population.slots["b"].inside[0] = False
        assert m.probe("a") == 5.0
        assert (m.inside("a"), m.inside("b")) == (True, False)
        assert m.table.inside[0]


def test_interval_rows_infinite_bounds_stay_quiescent():
    """Silencing filters express naturally as bounds that never flip."""
    m = _Row()
    m.install(FALSE_POSITIVE_FILTER, None, 5.0)
    ((lower, upper, inside),) = m.quiescence_rows()
    assert lower == -math.inf and upper == math.inf and inside is True
    m2 = _Row()
    m2.install(FALSE_NEGATIVE_FILTER, None, 5.0)
    ((lower, upper, inside),) = m2.quiescence_rows()
    assert lower == math.inf and inside is False


# ----------------------------------------------------------------------
# The columnar deployment rule (DESIGN.md §12) against its scalar oracle
# ----------------------------------------------------------------------
#: A small pool so lower == upper, value == bound and the +-inf
#: silencers all turn up often.
_EDGES = st.sampled_from([-math.inf, -3.0, -1.0, 0.0, 0.5, 1.0, 3.0, math.inf])
_FLOATS = st.one_of(_EDGES, st.floats(-10.0, 10.0, allow_nan=False))


@st.composite
def _deployment_rows(draw):
    """Rows of ``(value, lower, upper, belief code)`` with valid bounds."""
    rows = []
    for _ in range(draw(st.integers(0, 40))):
        lower, upper = sorted((draw(_FLOATS), draw(_FLOATS)))
        belief = draw(
            st.sampled_from([BELIEF_NONE, BELIEF_OUTSIDE, BELIEF_INSIDE])
        )
        rows.append((draw(_FLOATS), lower, upper, belief))
    return rows


@settings(max_examples=200, deadline=None)
@given(_deployment_rows())
def test_columnar_deployment_rule_matches_scalar_oracle(rows):
    """``deployment_outcome_columns`` equals ``deployment_outcome`` row
    by row: +-inf silencers, degenerate ``lower == upper``, values
    exactly on a bound, and every belief in {none, outside, inside}."""
    values, lower, upper, belief = (
        np.array(column, dtype=dtype)
        for column, dtype in zip(
            zip(*rows) if rows else ((), (), (), ()),
            (np.float64, np.float64, np.float64, np.int8),
        )
    )
    inside, must_report = deployment_outcome_columns(
        values, lower, upper, belief
    )
    expected = [
        deployment_outcome(
            FilterConstraint(low, high),
            None if code == BELIEF_NONE else bool(code),
            value,
        )
        for value, low, high, code in rows
    ]
    assert list(zip(inside.tolist(), must_report.tolist())) == expected
