"""Unit + randomized tests for FT-NRP (Figure 7)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import Deployment, Engine
from repro.protocols.ft_nrp import FractionToleranceRangeProtocol
from repro.protocols.selection import BoundaryNearestSelection, RandomSelection
from repro.protocols.zt_nrp import ZeroToleranceRangeProtocol
from repro.queries.range_query import RangeQuery
from repro.state.table import StreamStateTable
from repro.streams.synthetic import SyntheticConfig, generate_synthetic_trace
from repro.streams.trace import StreamTrace
from repro.tolerance.fraction_tolerance import FractionTolerance
from trace_cuts import head

QUERY = RangeQuery(400.0, 600.0)


def run_ft(trace, eps_plus, eps_minus, **kwargs):
    tolerance = FractionTolerance(eps_plus, eps_minus)
    protocol = FractionToleranceRangeProtocol(QUERY, tolerance, **kwargs)
    result = Engine().run_protocol(
        trace,
        protocol,
        tolerance=tolerance,
        deployment=Deployment.single(check_every=1, strict=True),
    )
    return result, protocol


class TestCorrectness:
    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.25, 0.45])
    def test_tolerance_held_throughout(self, small_trace, eps):
        result, _ = run_ft(small_trace, eps, eps)
        assert result.tolerance_ok

    @pytest.mark.parametrize("ep,em", [(0.0, 0.4), (0.4, 0.0), (0.1, 0.3)])
    def test_asymmetric_tolerances(self, small_trace, ep, em):
        result, _ = run_ft(small_trace, ep, em)
        assert result.tolerance_ok

    @pytest.mark.parametrize("seed", range(5))
    def test_many_seeds(self, seed):
        trace = generate_synthetic_trace(
            SyntheticConfig(n_streams=60, horizon=250.0, seed=seed)
        )
        result, _ = run_ft(trace, 0.3, 0.3)
        assert result.tolerance_ok

    def test_random_selection_also_correct(self, small_trace):
        result, _ = run_ft(
            small_trace, 0.3, 0.3, selection=RandomSelection(seed=1)
        )
        assert result.tolerance_ok

    def test_reinitialize_when_exhausted_stays_correct(self):
        trace = generate_synthetic_trace(
            SyntheticConfig(n_streams=60, horizon=400.0, seed=11)
        )
        result, protocol = run_ft(
            trace, 0.2, 0.2, reinitialize_when_exhausted=True
        )
        assert result.tolerance_ok


class TestStructure:
    def test_zero_tolerance_behaves_like_zt_nrp(self, small_trace):
        ft_result, protocol = run_ft(small_trace, 0.0, 0.0)
        zt_result = Engine().run_protocol(
            small_trace, ZeroToleranceRangeProtocol(QUERY)
        )
        assert protocol.n_plus == 0
        assert protocol.n_minus == 0
        assert ft_result.maintenance_messages == zt_result.maintenance_messages
        assert ft_result.final_answer == zt_result.final_answer

    def test_silencer_budgets_match_equations(self, small_trace):
        tolerance = FractionTolerance(0.3, 0.2)
        protocol = FractionToleranceRangeProtocol(QUERY, tolerance)
        # Inspect state right after initialization on a truncated trace.
        empty = head(small_trace, 0.0)
        Engine().run_protocol(empty, protocol, tolerance=tolerance)
        in_range = int(
            np.sum(
                (small_trace.initial_values >= 400.0)
                & (small_trace.initial_values <= 600.0)
            )
        )
        assert protocol.n_plus == tolerance.emax_plus(in_range)
        assert protocol.n_minus == min(
            tolerance.emax_minus(in_range),
            small_trace.n_streams - in_range,
        )

    def test_count_slack_defers_fixes(self):
        """An enter followed by a leave consumes slack, not silencers."""
        # Stream 9 holds 300 (outside) and is beyond the FN-silencer pool
        # (boundary-nearest picks ids 1, 3, 5, 7 first on this tie), so
        # its reports reach the server.
        trace = StreamTrace(
            initial_values=np.array([500.0, 300.0, 550.0, 700.0] * 5),
            times=np.array([1.0, 2.0]),
            stream_ids=np.array([9, 9]),
            values=np.array([500.0, 200.0]),  # enters then leaves
            horizon=3.0,
        )
        tolerance = FractionTolerance(0.4, 0.4)
        protocol = FractionToleranceRangeProtocol(QUERY, tolerance)
        before = None
        result = Engine().run_protocol(trace, protocol, tolerance=tolerance)
        assert protocol.count == 0
        assert result.probe_messages == 0  # Fix_Error never ran
        assert result.maintenance_messages == 2

    def test_fix_error_spends_silencers(self):
        """A leave with zero slack must probe a silenced stream."""
        # Streams 0-9 in range, 10-19 outside.  The FP pool holds ids
        # 0-3 (4 = floor(10 * 0.45) on an all-tie boundary ordering), so
        # stream 5's report reaches the server.
        initial = np.array([500.0] * 10 + [900.0] * 10)
        trace = StreamTrace(
            initial_values=initial,
            times=np.array([1.0]),
            stream_ids=np.array([5]),
            values=np.array([100.0]),  # leaves with count == 0
            horizon=2.0,
        )
        tolerance = FractionTolerance(0.45, 0.45)
        protocol = FractionToleranceRangeProtocol(QUERY, tolerance)
        n_plus_initial = tolerance.emax_plus(10)
        result = Engine().run_protocol(trace, protocol, tolerance=tolerance)
        assert result.probe_messages >= 2  # at least one probe round-trip
        spent = (n_plus_initial - protocol.n_plus) >= 1 or protocol.n_minus < min(
            tolerance.emax_minus(10), 10
        )
        assert spent


class TestCostShape:
    def test_tolerance_reduces_messages_on_average(self):
        """Across seeds, FT-NRP at high tolerance beats ZT-NRP in total."""
        ft_total = 0
        zt_total = 0
        for seed in range(4):
            trace = generate_synthetic_trace(
                SyntheticConfig(n_streams=150, horizon=300.0, seed=seed)
            )
            tolerance = FractionTolerance(0.4, 0.4)
            ft = Engine().run_protocol(
                trace,
                FractionToleranceRangeProtocol(QUERY, tolerance),
                tolerance=tolerance,
            )
            zt = Engine().run_protocol(trace, ZeroToleranceRangeProtocol(QUERY))
            ft_total += ft.maintenance_messages
            zt_total += zt.maintenance_messages
        assert ft_total < zt_total

    def test_boundary_nearest_beats_random_on_average(self):
        bn_total = 0
        rnd_total = 0
        for seed in range(4):
            trace = generate_synthetic_trace(
                SyntheticConfig(n_streams=200, horizon=300.0, seed=seed)
            )
            tolerance = FractionTolerance(0.4, 0.4)
            bn = Engine().run_protocol(
                trace,
                FractionToleranceRangeProtocol(
                    QUERY, tolerance, selection=BoundaryNearestSelection()
                ),
                tolerance=tolerance,
            )
            rnd = Engine().run_protocol(
                trace,
                FractionToleranceRangeProtocol(
                    QUERY, tolerance, selection=RandomSelection(seed=seed)
                ),
                tolerance=tolerance,
            )
            bn_total += bn.maintenance_messages
            rnd_total += rnd.maintenance_messages
        assert bn_total < rnd_total


# ----------------------------------------------------------------------
# absorb_reports: the scalar on_update loop is the oracle
# ----------------------------------------------------------------------
class RecordingServer:
    """The control plane ``on_update`` talks to, recording every message
    it would send; ``values`` are the sources' current values."""

    def __init__(self, state, values):
        self.state = state
        self.values = values
        self.messages = []

    def probe(self, stream_id):
        self.messages.append(("probe", stream_id))
        return self.values[stream_id]

    def probe_all(self):
        self.messages.append(("probe_all",))
        return np.array([self.values[i] for i in range(len(self.values))])

    def deploy_many(self, stream_ids, bound, assumed_inside=None, silenced=None):
        self.messages.append(("deploy", tuple(stream_ids)))


def _mid_run(tolerance, answer_size, n_plus, n_minus, count, reinitialize):
    """A protocol mid-maintenance over this population, in id order:
    ``n_plus`` FP-silenced answer members, the unsilenced rest of the
    answer, ``n_minus`` FN-silenced streams, 201 unsilenced outsiders."""
    outside = answer_size + n_minus
    table = StreamStateTable(outside + 201)
    values = {i: 500.0 if i < answer_size else 100.0 for i in range(outside + 201)}
    protocol = FractionToleranceRangeProtocol(
        QUERY, tolerance, reinitialize_when_exhausted=reinitialize
    )
    protocol._state = table
    protocol._pools.bind(table)
    table.answer_replace(range(answer_size))
    protocol._pools.reset(range(n_plus), range(answer_size, outside))
    protocol._count = count
    free = {True: list(range(outside, outside + 201)), False: list(range(n_plus, answer_size))}
    return protocol, RecordingServer(table, values), free


def _report(server, free, entering):
    """Flip one unsilenced stream to the *entering* side: its id and the
    value it reports, or ``None`` when no such stream is left."""
    if not free[entering]:
        return None
    stream_id = free[entering].pop()
    free[not entering].append(stream_id)
    server.values[stream_id] = 500.0 if entering else 100.0
    return stream_id, server.values[stream_id]


def _slack_state(protocol):
    return (
        protocol.count,
        list(protocol._pools.fp),
        list(protocol._pools.fn),
        protocol._state.answer_size,
        protocol.answer,
    )


EPS = st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.45])


@given(
    eps_plus=EPS,
    eps_minus=EPS,
    answer_size=st.integers(0, 14),
    n_plus=st.integers(0, 6),
    n_minus=st.integers(0, 6),
    count=st.integers(0, 4),
    reinitialize=st.booleans(),
    entering=st.lists(st.booleans(), max_size=200),
)
# eps = 0.45 at |A| <= 4: the module docstring's second deviation.
@example(0.45, 0.45, 4, 1, 1, 0, False, [True, False, False, False, False])
@example(0.45, 0.45, 2, 0, 1, 1, False, [False, False])
# Empty pools: Fix_Error is a no-op and count clamps at zero ...
@example(0.2, 0.2, 6, 0, 0, 1, False, [False] * 4 + [True, True, False] * 2)
# ... unless exhaustion reinitializes.
@example(0.2, 0.2, 6, 0, 0, 1, True, [False] * 4 + [True])
# q == 0: the first report reacts; and nothing to absorb at all.
@example(0.2, 0.2, 10, 2, 2, 0, False, [False, True])
@example(0.2, 0.2, 10, 2, 2, 0, False, [])
@settings(max_examples=300, deadline=None)
def test_absorb_reports_is_the_prefix_of_the_on_update_loop(
    eps_plus, eps_minus, answer_size, n_plus, n_minus, count, reinitialize,
    entering,
):
    tolerance = FractionTolerance(eps_plus, eps_minus)
    shape = (tolerance, answer_size, min(n_plus, answer_size), n_minus, count,
             reinitialize)

    # The oracle: loop on_update until one call sends a message.
    oracle, server, free = _mid_run(*shape)
    reports, quiet = [], None
    for side in entering:
        report = _report(server, free, side)
        if report is None:
            break
        reports.append(report)
        if quiet is None:
            before = _slack_state(oracle)
            oracle.on_update(server, *report, time=1.0)
            if server.messages:
                quiet, reaction = len(reports) - 1, list(server.messages)
    sides = np.array(entering[: len(reports)], dtype=bool)
    if quiet is None:
        quiet, before, reaction = len(reports), _slack_state(oracle), []

    subject, server, _ = _mid_run(*shape)
    assert subject.absorb_reports(sides) == quiet
    # The caller's half: the answer plane takes the absorbed reports.
    for (stream_id, _), side in zip(reports[:quiet], sides):
        edit = server.state.answer_add if side else server.state.answer_discard
        edit(stream_id)
    assert not server.messages
    assert _slack_state(subject) == before
    if quiet < len(reports):
        # ... and the next report does react, exactly as the loop's did.
        server.values.update(dict(reports[: quiet + 1]))
        subject.on_update(server, *reports[quiet], time=1.0)
        assert server.messages == reaction


@given(
    eps_plus=EPS,
    eps_minus=EPS,
    answer_size=st.integers(0, 14),
    n_plus=st.integers(0, 6),
    n_minus=st.integers(0, 6),
    count=st.integers(0, 4),
    entering=st.lists(st.booleans(), max_size=200),
)
@settings(max_examples=300, deadline=None)
def test_absorbing_between_reactions_follows_the_loop_to_the_end(
    eps_plus, eps_minus, answer_size, n_plus, n_minus, count, entering
):
    """Absorbed chunks alternate with the reactions that end them, as the
    columnar replay drives the protocol: the budget threshold absorb
    caches must follow every pool change a reaction makes, neither
    absorbing a reaction nor stopping at a quiet report."""
    tolerance = FractionTolerance(eps_plus, eps_minus)
    shape = (tolerance, answer_size, min(n_plus, answer_size), n_minus, count,
             False)
    oracle, server, free = _mid_run(*shape)
    reports = []
    for side in entering:
        report = _report(server, free, side)
        if report is None:
            break
        reports.append(report)
        oracle.on_update(server, *report, time=1.0)
    sides = np.array(entering[: len(reports)], dtype=bool)

    subject, subject_server, _ = _mid_run(*shape)
    position = 0
    while position < len(reports):
        absorbed = subject.absorb_reports(sides[position:])
        for stream_id, _ in reports[position : position + absorbed]:
            if sides[position]:
                subject_server.state.answer_add(stream_id)
            else:
                subject_server.state.answer_discard(stream_id)
            position += 1
        if position < len(reports):
            # The report absorb stopped at reacts: nothing quiet was left.
            sent = len(subject_server.messages)
            subject_server.values.update(dict(reports[: position + 1]))
            subject.on_update(subject_server, *reports[position], time=1.0)
            assert len(subject_server.messages) > sent
            position += 1
    assert subject_server.messages == server.messages
    assert _slack_state(subject) == _slack_state(oracle)
