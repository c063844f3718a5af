"""Unit + randomized tests for RTP (Figure 5)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Deployment, Engine
from repro.protocols.no_filter import NoFilterProtocol
from repro.protocols.rtp import RankToleranceProtocol
from repro.queries.knn import KMinQuery, KnnQuery, TopKQuery
from repro.state.rank import RankView
from repro.state.table import StreamStateTable
from repro.streams.synthetic import SyntheticConfig, generate_synthetic_trace
from repro.streams.trace import StreamTrace
from repro.tolerance.rank_tolerance import RankTolerance


def run_rtp(trace, query, r, strict=True):
    tolerance = RankTolerance(k=query.k, r=r)
    protocol = RankToleranceProtocol(query, tolerance)
    result = Engine().run_protocol(
        trace,
        protocol,
        tolerance=tolerance,
        deployment=Deployment.single(check_every=1, strict=strict),
    )
    return result, protocol


class TestConstruction:
    def test_mismatched_k_rejected(self):
        with pytest.raises(ValueError):
            RankToleranceProtocol(KnnQuery(0.0, 3), RankTolerance(k=5, r=0))

    def test_too_few_streams_rejected(self):
        trace = StreamTrace(
            initial_values=np.array([1.0, 2.0, 3.0]),
            times=np.array([]),
            stream_ids=np.array([]),
            values=np.array([]),
            horizon=1.0,
        )
        with pytest.raises(ValueError):
            run_rtp(trace, KnnQuery(0.0, 2), r=1)  # eps = 3 = n


class TestCorrectness:
    @pytest.mark.parametrize("r", [0, 1, 3, 8])
    def test_knn_tolerance_held(self, small_trace, r):
        result, _ = run_rtp(small_trace, KnnQuery(500.0, 5), r)
        assert result.tolerance_ok
        assert len(result.final_answer) == 5

    @pytest.mark.parametrize("query_factory", [TopKQuery, KMinQuery])
    def test_transforms_tolerance_held(self, small_trace, query_factory):
        result, _ = run_rtp(small_trace, query_factory(k=4), r=2)
        assert result.tolerance_ok

    @pytest.mark.parametrize("seed", range(5))
    def test_many_seeds(self, seed):
        trace = generate_synthetic_trace(
            SyntheticConfig(n_streams=50, horizon=250.0, seed=seed)
        )
        result, _ = run_rtp(trace, KnnQuery(450.0, 4), r=3)
        assert result.tolerance_ok

    def test_off_center_query_point(self, small_trace):
        result, _ = run_rtp(small_trace, KnnQuery(120.0, 3), r=2)
        assert result.tolerance_ok

    def test_r_zero_is_exact_up_to_k(self, small_trace):
        """r = 0 demands the answer equal the true top-k exactly."""
        result, _ = run_rtp(small_trace, KnnQuery(500.0, 5), r=0)
        assert result.tolerance_ok


class TestInvariants:
    def test_answer_subset_of_tracked(self, small_trace):
        _, protocol = run_rtp(small_trace, KnnQuery(500.0, 5), r=3)
        assert protocol.answer <= protocol.tracked
        assert len(protocol.tracked) <= protocol.eps
        assert len(protocol.answer) == 5

    def test_region_covers_tracked_values(self, small_trace):
        _, protocol = run_rtp(small_trace, KnnQuery(500.0, 5), r=3)
        assert protocol.region is not None
        lower, upper = protocol.region.lower, protocol.region.upper
        assert lower < upper

    def test_eps_property(self):
        protocol = RankToleranceProtocol(
            KnnQuery(0.0, 4), RankTolerance(k=4, r=3)
        )
        assert protocol.eps == 7


class TestCostShape:
    def test_larger_r_needs_fewer_messages_on_average(self):
        totals = {}
        for r in (0, 10):
            total = 0
            for seed in range(3):
                trace = generate_synthetic_trace(
                    SyntheticConfig(n_streams=80, horizon=250.0, seed=seed)
                )
                result, _ = run_rtp(trace, KnnQuery(500.0, 5), r, strict=False)
                total += result.maintenance_messages
            totals[r] = total
        assert totals[10] < totals[0]

    def test_moderate_r_beats_no_filter(self):
        trace = generate_synthetic_trace(
            SyntheticConfig(n_streams=100, horizon=300.0, seed=2)
        )
        rtp, _ = run_rtp(trace, KnnQuery(500.0, 5), r=8)
        baseline = Engine().run_protocol(trace, NoFilterProtocol(KnnQuery(500.0, 5)))
        assert rtp.maintenance_messages < baseline.maintenance_messages

    def test_quiet_streams_cost_nothing(self):
        """Objects far from R moving around never trigger messages."""
        initial = np.array([500.0, 505.0, 495.0, 510.0, 100.0, 900.0])
        trace = StreamTrace(
            initial_values=initial,
            times=np.array([1.0, 2.0, 3.0]),
            stream_ids=np.array([4, 5, 4]),
            values=np.array([120.0, 880.0, 90.0]),  # far away wiggles
            horizon=4.0,
        )
        result, _ = run_rtp(trace, KnnQuery(500.0, 2), r=1)
        assert result.maintenance_messages == 0


class TestMaintenanceCases:
    def test_case1_leave_tracked_not_answer(self):
        """A tracked non-answer object leaving R costs one update only."""
        initial = np.array([500.0, 501.0, 499.0, 503.0, 800.0])
        # k=2, r=1 -> eps=3; X = {0,1,2}, A = {0,2} (closest to 500).
        trace = StreamTrace(
            initial_values=initial,
            times=np.array([1.0]),
            stream_ids=np.array([3]),
            values=np.array([900.0]),
            horizon=2.0,
        )
        # Stream 3 is ranked 4th: outside X; moving to 900 crosses nothing
        # relevant... choose stream 1 instead:
        trace = StreamTrace(
            initial_values=initial,
            times=np.array([1.0]),
            stream_ids=np.array([1]),
            values=np.array([900.0]),
            horizon=2.0,
        )
        result, protocol = run_rtp(trace, KnnQuery(500.0, 2), r=1)
        assert result.maintenance_messages == 1
        assert 1 not in protocol.tracked
        assert result.tolerance_ok

    def test_case2_leave_answer_promotes_from_x(self):
        initial = np.array([500.0, 501.0, 499.0, 503.0, 800.0])
        trace = StreamTrace(
            initial_values=initial,
            times=np.array([1.0]),
            stream_ids=np.array([0]),
            values=np.array([900.0]),  # answer member leaves
            horizon=2.0,
        )
        result, protocol = run_rtp(trace, KnnQuery(500.0, 2), r=1)
        # X - A = {1} replaces stream 0; one update, no probes.
        assert result.maintenance_messages == 1
        assert protocol.answer == frozenset({1, 2})

    def test_case3_enter_with_room(self):
        """An object entering R while |X| < eps is tracked for free."""
        initial = np.array([500.0, 501.0, 499.0, 503.0, 800.0])
        # First stream 1 leaves (X: {0,2}), then stream 3 re-enters close.
        trace = StreamTrace(
            initial_values=initial,
            times=np.array([1.0, 2.0]),
            stream_ids=np.array([1, 1]),
            values=np.array([900.0, 500.5]),
            horizon=3.0,
        )
        result, protocol = run_rtp(trace, KnnQuery(500.0, 2), r=1)
        assert result.tolerance_ok
        assert 1 in protocol.tracked
        assert result.maintenance_messages == 2  # two updates, no resolution

    def test_case3_overflow_recomputes_bound(self):
        """An object entering a full X forces probing + redeployment."""
        initial = np.array([500.0, 501.0, 499.0, 503.0, 800.0])
        trace = StreamTrace(
            initial_values=initial,
            times=np.array([1.0]),
            stream_ids=np.array([4]),
            values=np.array([500.2]),  # barges into full X
            horizon=2.0,
        )
        result, protocol = run_rtp(trace, KnnQuery(500.0, 2), r=1)
        assert result.tolerance_ok
        # 1 update + probes of X members (3 x 2) + broadcast (5).
        assert result.probe_messages == 6
        assert result.constraint_messages == 5
        assert 4 in protocol.answer  # it is now the closest

    def test_case2_expansion_when_x_equals_a(self):
        """With no spare tracked object, the expanding search probes
        outward by stale rank and redeploys."""
        initial = np.array([500.0, 501.0, 480.0, 520.0, 800.0])
        # k=2, r=0 -> eps=2, X = A = {0, 1}.
        trace = StreamTrace(
            initial_values=initial,
            times=np.array([1.0]),
            stream_ids=np.array([0]),
            values=np.array([900.0]),
            horizon=2.0,
        )
        result, protocol = run_rtp(trace, KnnQuery(500.0, 2), r=0)
        assert result.tolerance_ok
        assert protocol.expansions == 1
        assert protocol.answer == frozenset({1, 2})  # 501 and 480


class TestBoundEnclosesTracked:
    """Regression: Deploy_bound's clamp case could exclude a tracked
    member by an ulp.

    When a stale outside value appears closer than the eps-th tracked
    object, the halfway gap degenerates to ``threshold = d_inside``
    exactly — but ``KnnQuery.region`` round-trips that through
    ``q ± threshold``, whose rounding can place the closed bound a few
    ulps past the tracked value (here: value 42.6416434 against a
    computed lower bound 42.64164340000002).  The source then sits
    outside a region the server believes it is inside; its membership
    never flips again, the divergence is never reported, and a later
    Case-2 promotion can lift the stale stream into the answer far out
    of tolerance.  Found by hypothesis; pinned here as a plain trace so
    a fresh checkout replays it without the local example database.
    """

    def trace(self):
        initial = np.array(
            [0.0, 2.0, 25.0, 237.0, 295.0, 296.0, 297.0,
             236.0, 26.0, 3.125e-02, 238.0, 239.0, 24.0, 240.0]
        )
        stream_ids = np.array(
            [0, 0, 0, 0, 0, 0, 0, 3, 5, 1, 0, 0, 0, 0, 0, 4,
             7, 11, 0, 2, 10, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2]
        )
        values = np.array(
            [542.0, 16.0, 17.0, 18.0, 19.0, 20.0, 21.0, 22.0,
             23.0, 42.6416434, 6.25e-02, 10.0, 11.0, 12.0, 13.0, 14.0,
             15.0, 0.125, 180.0, 179.0, 0.5, 1.0, 3.0, 4.0,
             5.0, 6.0, 7.0, 8.0, 9.0, 1.5, 0.25, 0.375]
        )
        return StreamTrace(
            initial_values=initial,
            times=np.arange(1.0, len(values) + 1.0),
            stream_ids=stream_ids,
            values=values,
            horizon=float(len(values) + 1),
        )

    def test_ulp_degenerate_bound_keeps_tolerance(self):
        result, _ = run_rtp(self.trace(), KnnQuery(500.0, 3), r=3)
        assert result.tolerance_ok

    def test_deployed_region_encloses_every_tracked_value(self):
        _, protocol = run_rtp(
            self.trace(), KnnQuery(500.0, 3), r=3, strict=False
        )
        lower, upper = protocol.region.lower, protocol.region.upper
        values = protocol._state.values  # noqa: SLF001
        for stream_id in protocol.tracked:
            assert lower <= values[stream_id] <= upper


# ----------------------------------------------------------------------
# Deploy_bound's split, from the tracked set vs the whole order
# ----------------------------------------------------------------------
def full_order_split(protocol):
    """The split as a walk of the whole rank order: ``X``'s members in
    rank order, the distance of its last one and that of the first
    stream in the order that is not in ``X``."""
    order = protocol._rank.order_ids()
    in_region = protocol._state.tracked_mask[order]
    inside, outside = order[in_region], order[~in_region]
    distance = protocol.query.distance
    values = protocol._state.values
    return values[inside], distance(values[inside[-1]]), distance(values[outside[0]])


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


#: Coarse values, a signed zero among them, so equal distances — the
#: tie rule — are common.
SPLIT_VALUE = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0, 3.5, 7.0])
SPLIT_QUERIES = [KnnQuery(1.0, 2), TopKQuery(k=2), KMinQuery(k=2)]


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    n=st.integers(3, 16),
    query=st.sampled_from(SPLIT_QUERIES),
)
def test_tracked_set_split_equals_the_full_order_split(data, n, query):
    """``_split`` reads ``(d_inside, d_outside)`` off ``X`` and the
    order's first ``|X| + 1`` rows; the region it leads to is the one
    the full-order walk leads to, bit for bit.  Values rewritten after
    ``X`` is chosen make it stale: an outside stream may then sit closer
    than a tracked one (the clamp case)."""
    table = StreamStateTable(n)
    values = data.draw(st.lists(SPLIT_VALUE, min_size=n, max_size=n))
    for row, value in enumerate(values):
        table.record_report(row, value)
    protocol = RankToleranceProtocol(query, RankTolerance(k=2, r=1))
    protocol._state = table
    protocol._rank = RankView(table, query.rank_keys)
    protocol._rank.order_ids()  # a synced view: stale rows repair below
    tracked = data.draw(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=n - 1, unique=True)
    )
    table.tracked_replace(tracked)
    for row, value in data.draw(
        st.lists(st.tuples(st.integers(0, n - 1), SPLIT_VALUE), max_size=4)
    ):
        table.record_report(row, value)
    members, d_inside, d_outside = protocol._split()
    want_members, want_inside, want_outside = full_order_split(protocol)
    assert sorted(members.tolist()) == sorted(want_members.tolist())
    assert (_bits(d_inside), _bits(d_outside)) == (
        _bits(want_inside),
        _bits(want_outside),
    )
    threshold = (d_inside + max(d_outside, d_inside)) / 2.0
    want = (want_inside + max(want_outside, want_inside)) / 2.0
    region = query.region(threshold, members)
    want_region = query.region(want, want_members)
    assert (_bits(region.lower), _bits(region.upper)) == (
        _bits(want_region.lower),
        _bits(want_region.upper),
    )


def test_tracked_set_split_clamp_and_tie_cases():
    """The two shapes the property draws, pinned: a stale outside value
    closer than a tracked one, and a tracked and an outside stream at
    equal distance (ids on both sides)."""
    query = KnnQuery(0.0, 2)
    table = StreamStateTable(6)
    for row, value in enumerate([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]):
        table.record_report(row, value)
    protocol = RankToleranceProtocol(query, RankTolerance(k=2, r=1))
    protocol._state = table
    protocol._rank = RankView(table, query.rank_keys)
    table.tracked_replace([1, 2, 3])
    # Clamp: untracked stream 0 (distance 1) is closer than tracked 3.
    assert protocol._split()[1:] == full_order_split(protocol)[1:] == (4.0, 1.0)
    # Ties: untracked 0 and 4 at tracked 3's distance, on both sides of it.
    table.record_report(0, 4.0)
    table.record_report(4, -4.0)
    assert protocol._split()[1:] == full_order_split(protocol)[1:] == (4.0, 4.0)
