"""Failure injection: prove the correctness machinery is not vacuous.

The protocols' guarantees assume reliable delivery (the paper's model).
These tests inject message loss and state corruption and verify that the
ground-truth checker actually *catches* the resulting violations — i.e.
that the hundreds of `tolerance_ok` assertions elsewhere are meaningful.
"""

import pytest

from repro.api import Deployment, Engine
from repro.correctness.checker import ToleranceChecker
from repro.correctness.oracle import Oracle
from repro.network.accounting import MessageLedger
from repro.network.channel import Channel
from repro.network.messages import MessageKind
from repro.protocols.zt_nrp import ZeroToleranceRangeProtocol
from repro.queries.range_query import RangeQuery
from repro.server.server import Server
from repro.streams.source import StreamSource
from repro.streams.synthetic import SyntheticConfig, generate_synthetic_trace
from repro.tolerance.fraction_tolerance import FractionTolerance


class LossyChannel(Channel):
    """Drops a deterministic subset of source-to-server updates."""

    def __init__(self, ledger: MessageLedger, drop_every: int) -> None:
        super().__init__(ledger)
        self.drop_every = drop_every
        self._uplinks = 0
        self.dropped = 0

    def send_to_server(self, message) -> None:
        if message.kind is MessageKind.UPDATE:
            self._uplinks += 1
            if self._uplinks % self.drop_every == 0:
                self.dropped += 1
                return  # lost in transit: never recorded nor delivered
        super().send_to_server(message)


def run_lossy_zt_nrp(trace, drop_every):
    """ZT-NRP over a lossy channel, with continuous exact checking."""
    query = RangeQuery(400.0, 600.0)
    ledger = MessageLedger()
    channel = LossyChannel(ledger, drop_every=drop_every)
    sources = [
        StreamSource(stream_id, value, channel)
        for stream_id, value in enumerate(trace.initial_values)
    ]
    protocol = ZeroToleranceRangeProtocol(query)
    server = Server(channel, protocol)
    oracle = Oracle(trace.initial_values)
    oracle.register_query(query)
    checker = ToleranceChecker(
        oracle=oracle,
        query=query,
        tolerance=None,
        answer_of=lambda: protocol.answer,
    )
    server.initialize()
    for record in trace:
        oracle.apply(record.stream_id, record.value)
        sources[record.stream_id].apply_value(record.value, record.time)
        checker.check(record.time)
    return channel, checker


@pytest.fixture(scope="module")
def trace():
    return generate_synthetic_trace(
        SyntheticConfig(n_streams=100, horizon=250.0, seed=2)
    )


class TestMessageLoss:
    def test_lost_updates_cause_detected_violations(self, trace):
        channel, checker = run_lossy_zt_nrp(trace, drop_every=3)
        assert channel.dropped > 0
        # The guarantee is broken AND the checker sees it.
        assert not checker.report.ok
        assert checker.report.violation_count > 0

    def test_reliable_channel_is_clean(self, trace):
        channel, checker = run_lossy_zt_nrp(trace, drop_every=10**9)
        assert channel.dropped == 0
        assert checker.report.ok

    def test_more_loss_more_violations(self, trace):
        _, lossy = run_lossy_zt_nrp(trace, drop_every=2)
        _, rare = run_lossy_zt_nrp(trace, drop_every=50)
        assert lossy.report.violation_count > rare.report.violation_count


class TestStateCorruption:
    def test_corrupted_answer_is_flagged(self, trace):
        """Tampering with the final answer set must flip tolerance_ok."""
        query = RangeQuery(400.0, 600.0)
        tolerance = FractionTolerance(0.1, 0.1)

        class SabotagedProtocol(ZeroToleranceRangeProtocol):
            @property
            def answer(self):
                honest = super().answer
                # Claim a wildly wrong set: everything not in the answer.
                return frozenset(range(trace.n_streams)) - honest

        result = Engine().run_protocol(
            trace,
            SabotagedProtocol(query),
            tolerance=tolerance,
            deployment=Deployment.single(check_every=1),
        )
        assert not result.tolerance_ok
