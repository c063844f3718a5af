"""Cross-protocol integration tests of the paper's headline claims.

Each test runs several protocols over one shared trace and checks a
relationship the paper asserts (Sections 4-6), with continuous tolerance
validation on.
"""

import pytest

from repro.api import Deployment, Engine
from repro.protocols.ft_nrp import FractionToleranceRangeProtocol
from repro.protocols.ft_rp import FractionToleranceKnnProtocol
from repro.protocols.no_filter import NoFilterProtocol
from repro.protocols.rtp import RankToleranceProtocol
from repro.protocols.zt_nrp import ZeroToleranceRangeProtocol
from repro.protocols.zt_rp import ZeroToleranceKnnProtocol
from repro.queries.knn import KnnQuery, TopKQuery
from repro.queries.range_query import RangeQuery
from repro.streams.synthetic import SyntheticConfig, generate_synthetic_trace
from repro.streams.tcp import TcpTraceConfig, generate_tcp_trace
from repro.tolerance.fraction_tolerance import FractionTolerance
from repro.tolerance.rank_tolerance import RankTolerance

CHECKED = Deployment.single(check_every=1, strict=True)


@pytest.fixture(scope="module")
def trace():
    return generate_synthetic_trace(
        SyntheticConfig(n_streams=120, horizon=300.0, seed=1)
    )


@pytest.fixture(scope="module")
def tcp():
    return generate_tcp_trace(
        TcpTraceConfig(n_subnets=120, n_connections=4000, days=8.0, seed=1)
    )


class TestRangeQueryFamily:
    def test_filters_beat_no_filter(self, trace):
        """Any filtering dominates reporting everything (Section 5.1)."""
        query = RangeQuery(400.0, 600.0)
        none = Engine().run_protocol(trace, NoFilterProtocol(query), deployment=CHECKED)
        zt = Engine().run_protocol(
            trace, ZeroToleranceRangeProtocol(query), deployment=CHECKED
        )
        assert zt.maintenance_messages < none.maintenance_messages

    def test_ft_nrp_exploits_tolerance(self, trace):
        query = RangeQuery(400.0, 600.0)
        zt = Engine().run_protocol(trace, ZeroToleranceRangeProtocol(query))
        tolerance = FractionTolerance(0.4, 0.4)
        ft = Engine().run_protocol(
            trace,
            FractionToleranceRangeProtocol(query, tolerance),
            tolerance=tolerance,
            deployment=CHECKED,
        )
        # Tolerance must not cost more than a small Fix_Error overhead.
        assert ft.maintenance_messages <= zt.maintenance_messages * 1.1
        assert ft.tolerance_ok

    def test_all_range_protocols_within_tolerance_on_tcp(self, tcp):
        query = RangeQuery(400.0, 600.0)
        tolerance = FractionTolerance(0.3, 0.3)
        results = [
            Engine().run_protocol(tcp, NoFilterProtocol(query), deployment=CHECKED),
            Engine().run_protocol(
                tcp, ZeroToleranceRangeProtocol(query), deployment=CHECKED
            ),
            Engine().run_protocol(
                tcp,
                FractionToleranceRangeProtocol(query, tolerance),
                tolerance=tolerance,
                deployment=CHECKED,
            ),
        ]
        assert all(r.tolerance_ok for r in results)


class TestRankQueryFamily:
    def test_rtp_beats_zt_rp(self, trace):
        """Tracking X with rank slack dwarfs recompute-on-every-cross."""
        query = KnnQuery(500.0, 5)
        tolerance = RankTolerance(k=5, r=5)
        rtp = Engine().run_protocol(
            trace,
            RankToleranceProtocol(query, tolerance),
            tolerance=tolerance,
            deployment=CHECKED,
        )
        zt = Engine().run_protocol(
            trace, ZeroToleranceKnnProtocol(KnnQuery(500.0, 5)), deployment=CHECKED
        )
        assert rtp.maintenance_messages < zt.maintenance_messages / 5

    def test_ft_rp_beats_zt_rp_at_positive_tolerance(self, trace):
        query_factory = lambda: KnnQuery(500.0, 10)
        zt = Engine().run_protocol(
            trace, ZeroToleranceKnnProtocol(query_factory()), deployment=CHECKED
        )
        tolerance = FractionTolerance(0.3, 0.3)
        ft = Engine().run_protocol(
            trace,
            FractionToleranceKnnProtocol(query_factory(), tolerance),
            tolerance=tolerance,
            deployment=CHECKED,
        )
        assert ft.maintenance_messages < zt.maintenance_messages / 5

    def test_topk_on_tcp_all_protocols_sound(self, tcp):
        k = 8
        tolerance = RankTolerance(k=k, r=4)
        rtp = Engine().run_protocol(
            tcp,
            RankToleranceProtocol(TopKQuery(k=k), tolerance),
            tolerance=tolerance,
            deployment=CHECKED,
        )
        assert rtp.tolerance_ok
        ft_tol = FractionTolerance(0.25, 0.25)
        ftrp = Engine().run_protocol(
            tcp,
            FractionToleranceKnnProtocol(TopKQuery(k=k), ft_tol),
            tolerance=ft_tol,
            deployment=CHECKED,
        )
        assert ftrp.tolerance_ok


class TestDeterminism:
    def test_full_stack_is_reproducible(self):
        def once():
            trace = generate_synthetic_trace(
                SyntheticConfig(n_streams=60, horizon=200.0, seed=9)
            )
            tolerance = FractionTolerance(0.2, 0.2)
            result = Engine().run_protocol(
                trace,
                FractionToleranceRangeProtocol(
                    RangeQuery(400.0, 600.0), tolerance
                ),
                tolerance=tolerance,
            )
            return result.maintenance_messages, result.final_answer

        assert once() == once()
