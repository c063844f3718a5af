"""Tests for the multi-query extension (shared sources, per-query slots)."""

import numpy as np
import pytest

from repro.api import Deployment, Engine, QuerySpec, Workload
from repro.multiquery import QueryGroup
from repro.protocols.zt_nrp import ZeroToleranceRangeProtocol
from repro.queries.knn import KnnQuery
from repro.queries.range_query import RangeQuery
from repro.runtime.session import ExecutionSession
from repro.streams.synthetic import SyntheticConfig, generate_synthetic_trace
from repro.streams.trace import StreamTrace
from repro.tolerance.fraction_tolerance import FractionTolerance
from repro.tolerance.rank_tolerance import RankTolerance

CHECKED = Deployment.single(check_every=1, strict=True)


@pytest.fixture(scope="module")
def trace():
    return generate_synthetic_trace(
        SyntheticConfig(n_streams=150, horizon=250.0, seed=4)
    )


def make_specs(tolerances):
    """One FT-NRP (or ZT-NRP) per tolerance, all over [400, 600]."""
    specs = {}
    for i, eps in enumerate(tolerances):
        query = RangeQuery(400.0, 600.0)
        if eps == 0.0:
            specs[f"user{i}"] = QuerySpec("zt-nrp", query)
        else:
            specs[f"user{i}"] = QuerySpec(
                "ft-nrp", query, FractionTolerance(eps, eps)
            )
    return specs


def run_queries(trace, specs, deployment=None):
    return Engine().run_queries(specs, Workload.from_trace(trace), deployment)


class TestCorrectness:
    def test_every_query_within_tolerance(self, trace):
        report = run_queries(trace, make_specs([0.0, 0.2, 0.4]), CHECKED)
        assert report.tolerance_ok
        assert set(report.answers) == {"user0", "user1", "user2"}

    def test_mixed_query_classes(self, trace):
        report = run_queries(
            trace,
            {
                "zone": QuerySpec(
                    "ft-nrp",
                    RangeQuery(400.0, 600.0),
                    FractionTolerance(0.25, 0.25),
                ),
                "nearest": QuerySpec(
                    "rtp", KnnQuery(500.0, 6), RankTolerance(k=6, r=4)
                ),
            },
            CHECKED,
        )
        assert report.tolerance_ok
        assert len(report.answers["nearest"]) == 6

    def test_solo_equivalence_of_answers(self, trace):
        """A protocol behind the facade ends with the same answer as a
        solo run on the same trace."""
        (spec,) = make_specs([0.2]).values()
        solo = Engine().run(spec, Workload.from_trace(trace))
        shared = run_queries(trace, make_specs([0.2]))
        assert shared.answers["user0"] == solo.final_answer
        assert shared.maintenance_messages == solo.maintenance_messages


class TestViolationReporting:
    """Each query is checked by its own ``ToleranceChecker``: breaches
    past the 100-record detail cap are counted, not silently dropped."""

    def breached(self, trace, **knobs):
        """FT-NRP built for 40 % error but checked for the exact answer,
        next to a ZT-NRP that holds it: a pre-built group, run through
        the escape hatch for built protocols."""
        query = RangeQuery(400.0, 600.0)
        loose = QuerySpec("ft-nrp", query, FractionTolerance(0.4, 0.4))
        group = QueryGroup(
            {
                "loose": (loose.build(), query, None),
                "exact": (ZeroToleranceRangeProtocol(query), query, None),
            }
        )
        return Engine().run_protocol(
            trace, group, deployment=Deployment.single(**knobs)
        )

    def test_breaches_past_the_detail_cap_are_counted(self, trace):
        report = self.breached(trace, check_every=1)
        assert (report.stack, report.protocol) == ("multiquery", "multi-query")
        assert report.checker.violation_count > 100
        assert len(report.violations) == 101
        lines = report.violations[:-1]
        assert all(" [loose]: exact answer required" in line for line in lines)
        times = [float(line[2:].split(" ")[0]) for line in lines]
        assert times == sorted(times)
        assert not report.tolerance_ok
        # Ticks checked, not ticks x queries.
        assert report.checks == trace.n_records + 1

    def test_run_queries_reports_how_many_more(self, trace):
        """ZT-RP answers with k=5 streams; a rank tolerance demanding
        exactly 3 is breached at every check (the parent reported 100
        lines and no count)."""
        spec = QuerySpec("zt-rp", KnnQuery(500.0, 5), RankTolerance(k=3, r=0))
        report = Engine().run_queries(
            {"q": spec},
            Workload.from_trace(trace),
            Deployment.single(check_every=1),
        )
        assert report.checks == trace.n_records + 1
        assert report.checker.violation_count == report.checks
        assert len(report.violations) == 101
        assert report.violations[0] == (
            "t=0.0 [q]: |A| = 5, expected exactly k = 3"
        )
        assert report.violations[-1] == f"... and {report.checks - 100} more"

    def test_sampled_checks_fire_on_every_nth_tick(self, trace):
        report = self.breached(trace, check_every=7)
        assert report.checks == 1 + trace.n_records // 7

    def test_strict_names_the_query(self, trace):
        with pytest.raises(AssertionError, match=r"^t=\S+ \[loose\]: exact"):
            self.breached(trace, check_every=1, strict=True)


class TestSharing:
    def test_identical_queries_share_updates(self, trace):
        shared = run_queries(trace, make_specs([0.0, 0.0, 0.0]))
        solo = Engine().run_protocol(
            trace, ZeroToleranceRangeProtocol(RangeQuery(400.0, 600.0))
        )
        # Identical filters flip together: one physical update serves all
        # three queries, so total update cost equals one solo run's.
        assert shared.extras["shared_updates"] == solo.maintenance_messages
        assert shared.extras["sharing_factor"] == pytest.approx(3.0)

    def test_shared_beats_independent_deployments(self, trace):
        tolerances = [0.0, 0.1, 0.2, 0.4]
        shared = run_queries(trace, make_specs(tolerances))
        independent = sum(
            Engine().run(spec, Workload.from_trace(trace)).maintenance_messages
            for spec in make_specs(tolerances).values()
        )
        assert shared.maintenance_messages < independent

    def test_disjoint_ranges_share_little(self):
        trace = generate_synthetic_trace(
            SyntheticConfig(n_streams=100, horizon=200.0, seed=8)
        )
        specs = {
            f"q{i}": QuerySpec("zt-nrp", RangeQuery(float(low), float(high)))
            for i, (low, high) in enumerate([(100, 250), (450, 550), (800, 950)])
        }
        report = run_queries(trace, specs, CHECKED)
        assert report.tolerance_ok
        assert report.extras["sharing_factor"] < 1.2


class TestCoordinator:
    def test_context_mirrors_server_api(self):
        trace = StreamTrace(
            initial_values=np.array([5.0, 15.0]),
            times=np.empty(0),
            stream_ids=np.empty(0, dtype=np.int64),
            values=np.empty(0),
            horizon=1.0,
        )
        query = RangeQuery(0.0, 10.0)
        group = QueryGroup({"a": (ZeroToleranceRangeProtocol(query), query, None)})
        session = ExecutionSession.assemble("streams", trace, group)
        context = session.host.contexts["a"]
        assert context.n_streams == 2
        assert context.stream_ids == [0, 1]
        assert context.probe(1) == 15.0
        assert context.probe_all().tolist() == [5.0, 15.0]
        assert context.state.values.tolist() == [5.0, 15.0]

    def test_unfiltered_source_notifies_every_query(self):
        """Before any filter is installed, updates fan out to all."""
        trace = StreamTrace(
            initial_values=np.array([500.0] * 5),
            times=np.array([1.0]),
            stream_ids=np.array([0]),
            values=np.array([100.0]),
            horizon=2.0,
        )
        seen = []

        class Spy(ZeroToleranceRangeProtocol):
            def initialize(self, server):
                pass  # no filters installed

            def on_update(self, server, stream_id, value, time):
                seen.append((server.query_id, stream_id))

        query = RangeQuery(0, 1)
        group = QueryGroup(
            {"a": (Spy(query), query, None), "b": (Spy(query), query, None)}
        )
        session = ExecutionSession.assemble("streams", trace, group)
        session.initialize()
        session.sources[0].apply(100.0, 1.0)
        assert seen == [("a", 0), ("b", 0)]
        assert session.snapshot().maintenance_total == 1
