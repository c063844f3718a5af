"""The staleness-window classification: the split must be exact.

Hand-constructed scenarios in which a violation is *provably* inherent
to latency (a message is in flight, or the run has left its synchronous
prefix) versus one that *provably* flags a protocol bug (the run is
still byte-identical to a synchronous run — no deferred delivery ever —
and the network is quiet), asserting the checker's split matches
exactly, violation by violation.
"""

import numpy as np
import pytest

from repro.api import Deployment, Engine, QuerySpec, Workload
from repro.correctness import (
    INHERENT_LATENCY,
    PROTOCOL_BUG,
    Oracle,
    StalenessWindow,
    ToleranceChecker,
    ToleranceViolationError,
)
from repro.network.accounting import MessageLedger
from repro.network.latency import FixedLatency, LatencyChannel
from repro.network.messages import (
    ConstraintMessage,
    ProbeRequestMessage,
    UpdateMessage,
)
from repro.queries.knn import KnnQuery
from repro.queries.range_query import RangeQuery
from repro.sim.engine import SimulationEngine


def make_rig(uplink=2.0):
    """A latency channel plus a checker whose answer we control."""
    engine = SimulationEngine()
    channel = LatencyChannel(
        MessageLedger(), engine, FixedLatency(uplink=uplink, downlink=2.0)
    )
    channel.bind_server(lambda message: None)
    for i in range(4):
        channel.bind_source(i, lambda message: None)
    oracle = Oracle(np.array([500.0, 100.0, 200.0, 300.0]))
    query = RangeQuery(400.0, 600.0)
    oracle.register_query(query)
    answer: set[int] = {0}
    checker = ToleranceChecker(
        oracle=oracle,
        query=query,
        tolerance=None,  # exact answer demanded
        answer_of=lambda: set(answer),
        staleness=StalenessWindow([channel]),
    )
    return engine, channel, oracle, answer, checker


class TestExactSplit:
    def test_violation_in_synchronous_prefix_is_protocol_bug(self):
        engine, channel, oracle, answer, checker = make_rig()
        answer.clear()  # wrong answer, no latency activity whatsoever
        violation = checker.check_now(time=1.0)
        assert violation is not None
        assert violation.classification == PROTOCOL_BUG
        assert checker.report.protocol_bug_count == 1
        assert checker.report.inherent_count == 0
        assert not checker.report.latency_clean

    def test_violation_with_message_in_flight_is_inherent(self):
        engine, channel, oracle, answer, checker = make_rig()
        channel.send_to_server(UpdateMessage(stream_id=1, time=0.0, value=450.0))
        assert channel.in_flight_count == 1
        oracle.apply(1, 450.0)  # truth moved; the report still flies
        violation = checker.check_now(time=1.0)
        assert violation is not None
        assert violation.classification == INHERENT_LATENCY

    def test_quiet_violation_in_stale_regime_is_inherent(self):
        """A mis-resolved state can persist after the network drains; a
        quiet instant beyond the synchronous prefix must not be blamed
        on the protocol."""
        engine, channel, oracle, answer, checker = make_rig()
        channel.send_to_server(UpdateMessage(stream_id=1, time=0.0, value=450.0))
        oracle.apply(1, 450.0)
        engine.run(until=5.0)  # delivery at t=2: regime is now stale
        assert channel.in_flight_count == 0
        assert channel.deferred_delivered_count == 1
        violation = checker.check_now(time=5.0)
        assert violation is not None
        assert violation.classification == INHERENT_LATENCY

    def test_sequence_splits_exactly(self):
        """prefix-bug, in-flight, post-drain: the counts and per-record
        classifications match the construction one for one."""
        engine, channel, oracle, answer, checker = make_rig()
        answer.clear()
        checker.check_now(time=0.5)  # (1) quiet prefix -> bug
        answer.add(0)
        channel.send_to_server(UpdateMessage(stream_id=1, time=1.0, value=450.0))
        oracle.apply(1, 450.0)
        checker.check_now(time=1.5)  # (2) in flight -> inherent
        engine.run(until=4.0)
        checker.check_now(time=4.0)  # (3) drained, stale regime -> inherent
        report = checker.report
        assert report.violation_count == 3
        assert report.protocol_bug_count == 1
        assert report.inherent_count == 2
        assert [v.classification for v in report.violations] == [
            PROTOCOL_BUG,
            INHERENT_LATENCY,
            INHERENT_LATENCY,
        ]

    def test_satisfied_checks_record_nothing(self):
        engine, channel, oracle, answer, checker = make_rig()
        channel.send_to_server(UpdateMessage(stream_id=1, time=0.0, value=450.0))
        assert checker.check_now(time=0.5) is None  # answer still right
        assert checker.report.violation_count == 0
        assert checker.report.inherent_count == 0
        assert checker.report.classified


class TestStalenessWindow:
    def test_a_late_delivery_leaves_the_regime_stale(self):
        engine, channel, *_ = make_rig()
        staleness = StalenessWindow([channel])
        assert not staleness.stale_regime
        assert staleness.classify() == PROTOCOL_BUG
        channel.send_to_server(UpdateMessage(stream_id=2, time=0.0, value=1.0))
        assert staleness.classify() == INHERENT_LATENCY  # in flight
        engine.run(until=2.0)
        assert channel.in_flight_count == 0
        # ... and the regime is stale forever after the late delivery.
        assert staleness.stale_regime
        assert staleness.classify() == INHERENT_LATENCY

    def test_an_inline_delivery_keeps_the_synchronous_prefix(self):
        """A zero-delay message never spends time in flight, so it
        leaves the run byte-identical to a synchronous one."""
        engine, channel, *_ = make_rig(uplink=0.0)
        staleness = StalenessWindow([channel])
        channel.send_to_server(UpdateMessage(stream_id=2, time=0.0, value=1.0))
        assert channel.in_flight_count == 0
        assert channel.deferred_delivered_count == 0
        assert not staleness.stale_regime
        assert staleness.classify() == PROTOCOL_BUG

    def test_a_probe_round_trip_keeps_the_synchronous_prefix(self):
        engine, channel, *_ = make_rig()
        staleness = StalenessWindow([channel])
        channel.send_to_source(ProbeRequestMessage(stream_id=1, time=0.0))
        assert not staleness.stale_regime
        assert staleness.classify() == PROTOCOL_BUG

    def test_a_constraint_in_flight_to_a_source_counts(self):
        engine, channel, *_ = make_rig()
        staleness = StalenessWindow([channel])
        channel.send_to_source(ConstraintMessage(1, 0.0, 400.0, 600.0))
        assert channel.in_flight_count == 1
        assert not staleness.stale_regime
        assert staleness.classify() == INHERENT_LATENCY
        engine.run(until=2.0)  # delivered late: stale from here on
        assert channel.in_flight_count == 0
        assert staleness.classify() == INHERENT_LATENCY

    def test_one_busy_channel_of_several_is_enough(self):
        from repro.network.channel import Channel

        engine, busy, *_ = make_rig()
        _, quiet, *_ = make_rig()
        staleness = StalenessWindow([Channel(MessageLedger()), quiet, busy])
        assert staleness.channels == [quiet, busy]
        assert staleness.classify() == PROTOCOL_BUG
        busy.send_to_server(UpdateMessage(stream_id=3, time=0.0, value=1.0))
        assert staleness.classify() == INHERENT_LATENCY

    def test_synchronous_channels_are_ignored(self):
        from repro.network.channel import Channel

        staleness = StalenessWindow([Channel(MessageLedger())])
        assert staleness.channels == []
        assert staleness.classify() == PROTOCOL_BUG


class TestStrictMode:
    def test_strict_raises_on_protocol_bug_only(self):
        engine, channel, oracle, answer, checker = make_rig()
        checker.strict = True
        # Inherent violation: accumulated, not raised.
        channel.send_to_server(UpdateMessage(stream_id=1, time=0.0, value=450.0))
        oracle.apply(1, 450.0)
        assert checker.check_now(time=1.0) is not None
        # Drain, then forge a fresh rig (synchronous prefix) for the bug.
        engine2, channel2, oracle2, answer2, checker2 = make_rig()
        checker2.strict = True
        answer2.clear()
        with pytest.raises(ToleranceViolationError):
            checker2.check_now(time=1.0)

    def test_unclassified_strict_still_raises(self):
        engine, channel, oracle, answer, checker = make_rig()
        plain = ToleranceChecker(
            oracle=oracle,
            query=checker.query,
            tolerance=None,
            answer_of=lambda: set(),
            strict=True,
        )
        with pytest.raises(ToleranceViolationError):
            plain.check_now(time=1.0)


class TestEngineIntegration:
    def test_latency_run_classifies_and_stays_latency_clean(self):
        """A real protocol under heavy latency: violations occur, every
        one is attributed to latency, none to the protocol."""
        engine = Engine()
        spec = QuerySpec(protocol="zt-rp", query=KnnQuery(q=500.0, k=5))
        workload = Workload.synthetic(
            n_streams=100, horizon=120.0, sigma=60.0, seed=0
        )
        report = engine.run(
            spec, workload, Deployment.single(check_every=1, latency=8.0)
        )
        inherent = report.extras["violations_inherent_latency"]
        bugs = report.extras["violations_protocol_bug"]
        assert inherent > 0  # staleness visibly degrades requirement 2
        assert bugs == 0
        assert inherent + bugs == len(report.checker.violations) or (
            report.checker.violation_count == inherent + bugs
        )
        # The violation strings carry the classification tag.
        assert any("[inherent-latency]" in v for v in report.violations)

    def test_synchronous_run_reports_no_classification_extras(self):
        engine = Engine()
        spec = QuerySpec(protocol="zt-rp", query=KnnQuery(q=500.0, k=5))
        workload = Workload.synthetic(n_streams=50, horizon=40.0, seed=0)
        report = engine.run(spec, workload, Deployment.single(check_every=1))
        assert "violations_inherent_latency" not in report.extras
        assert "violations_protocol_bug" not in report.extras


class TestSpatialIntegration:
    def test_spatial_latency_run_classifies_and_stays_clean(self):
        """The -2d stacks classify exactly like the scalar checker."""
        from repro.spatial.queries import SpatialKnnQuery

        engine = Engine()
        spec = QuerySpec(
            protocol="zt-rp-2d", query=SpatialKnnQuery((500.0, 500.0), 5)
        )
        workload = Workload.moving_objects(
            n_objects=60, horizon=150.0, sigma=40.0, seed=2
        )
        report = engine.run(
            spec, workload, Deployment.single(check_every=1, latency=6.0)
        )
        assert report.extras["violations_inherent_latency"] > 0
        assert report.extras["violations_protocol_bug"] == 0
        assert any("[inherent-latency]" in v for v in report.violations)

    def test_spatial_strict_tolerates_inherent_breaches(self):
        from repro.spatial.queries import SpatialKnnQuery

        engine = Engine()
        spec = QuerySpec(
            protocol="zt-rp-2d", query=SpatialKnnQuery((500.0, 500.0), 5)
        )
        workload = Workload.moving_objects(
            n_objects=60, horizon=150.0, sigma=40.0, seed=2
        )
        # The same run that accumulates inherent violations above must
        # complete under strict=True: only protocol bugs abort.
        report = engine.run(
            spec,
            workload,
            Deployment.single(check_every=1, strict=True, latency=6.0),
        )
        assert report.extras["violations_inherent_latency"] > 0

    def test_spatial_synchronous_run_has_no_classification(self):
        from repro.spatial.queries import SpatialKnnQuery

        engine = Engine()
        spec = QuerySpec(
            protocol="zt-rp-2d", query=SpatialKnnQuery((500.0, 500.0), 5)
        )
        workload = Workload.moving_objects(n_objects=40, horizon=60.0, seed=2)
        report = engine.run(spec, workload, Deployment.single(check_every=1))
        assert "violations_inherent_latency" not in report.extras


class TestFanoutIntegration:
    def test_parallel_fanout_supports_latency(self):
        """Decomposable protocols fan out with a latency model riding
        along; latency=0 stays byte-identical to the synchronous run."""
        engine = Engine()
        spec = QuerySpec(protocol="zt-nrp", query=RangeQuery(400.0, 600.0))
        workload = Workload.synthetic(n_streams=120, horizon=80.0, seed=7)
        base = engine.run(spec, workload, Deployment.single())
        fanned = engine.run(
            spec,
            workload,
            Deployment.sharded(2, parallel=True, latency=0.0),
        )
        assert fanned.ledger == base.ledger
        assert fanned.final_answer == base.final_answer
        # A positive fixed delay completes and conserves the multiset
        # (decomposable sources decide reports locally at record time).
        delayed = engine.run(
            spec,
            workload,
            Deployment.sharded(2, parallel=True, latency=3.0),
        )
        assert delayed.final_answer == base.final_answer
