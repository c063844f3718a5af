"""Unit tests for source-side filter behaviour."""

import math

from repro.network.messages import (
    ConstraintMessage,
    MessageKind,
    ProbeRequestMessage,
)


def test_no_filter_reports_every_change(wired_channel):
    channel, ledger, sources, received = wired_channel
    sources[0].apply(1.0, time=1.0)
    sources[0].apply(2.0, time=2.0)
    assert [m.value for m in received] == [1.0, 2.0]


def test_filter_suppresses_non_crossing_changes(wired_channel):
    channel, ledger, sources, received = wired_channel
    channel.send_to_source(
        ConstraintMessage(0, 0.0, lower=0.0, upper=10.0, assumed_inside=True)
    )
    received.clear()
    sources[0].apply(3.0, 1.0)   # inside, no report
    sources[0].apply(9.0, 2.0)   # inside, no report
    assert received == []
    sources[0].apply(11.0, 3.0)  # crossed out: report
    assert [m.value for m in received] == [11.0]
    sources[0].apply(20.0, 4.0)  # still outside: no report
    assert len(received) == 1
    sources[0].apply(5.0, 5.0)   # crossed back in: report
    assert [m.value for m in received] == [11.0, 5.0]


def test_false_positive_filter_silences_source(wired_channel):
    channel, ledger, sources, received = wired_channel
    channel.send_to_source(
        ConstraintMessage(1, 0.0, lower=-math.inf, upper=math.inf)
    )
    received.clear()
    for value in (0.0, 1e6, -1e6, 42.0):
        sources[1].apply(value, 1.0)
    assert received == []


def test_false_negative_filter_silences_source(wired_channel):
    channel, ledger, sources, received = wired_channel
    channel.send_to_source(
        ConstraintMessage(1, 0.0, lower=math.inf, upper=math.inf)
    )
    received.clear()
    for value in (0.0, 1e6, -1e6):
        sources[1].apply(value, 1.0)
    assert received == []


def test_probe_returns_current_value_and_refreshes_state(wired_channel):
    channel, ledger, sources, received = wired_channel
    channel.send_to_source(
        ConstraintMessage(0, 0.0, lower=0.0, upper=10.0, assumed_inside=True)
    )
    received.clear()
    sources[0].apply(4.0, 1.0)  # inside: silent
    channel.send_to_source(ProbeRequestMessage(0, 2.0))
    assert received[-1].kind is MessageKind.PROBE_REPLY
    assert received[-1].value == 4.0


def test_stale_belief_triggers_self_correction(wired_channel):
    channel, ledger, sources, received = wired_channel
    sources[2].value = 15.0
    # Server wrongly believes source 2 (value 15) is outside [0, 10]...
    # that belief is *correct*; no report.
    channel.send_to_source(
        ConstraintMessage(2, 0.0, lower=0.0, upper=10.0, assumed_inside=False)
    )
    assert received == []
    # Now the server wrongly believes it is inside: one corrective update.
    channel.send_to_source(
        ConstraintMessage(2, 1.0, lower=0.0, upper=10.0, assumed_inside=True)
    )
    assert len(received) == 1
    assert received[0].kind is MessageKind.UPDATE
    assert received[0].value == 15.0
    # The correction resynchronized state: no further report until a cross.
    received.clear()
    sources[2].apply(20.0, 2.0)
    assert received == []


def test_fresh_deploy_needs_no_belief(wired_channel):
    channel, ledger, sources, received = wired_channel
    sources[0].value = 5.0
    channel.send_to_source(
        ConstraintMessage(0, 0.0, lower=0.0, upper=10.0, assumed_inside=None)
    )
    assert received == []
    assert sources[0].reported_inside is True


def test_redeployment_replaces_constraint(wired_channel):
    channel, ledger, sources, received = wired_channel
    channel.send_to_source(
        ConstraintMessage(0, 0.0, lower=0.0, upper=10.0, assumed_inside=None)
    )
    channel.send_to_source(
        ConstraintMessage(0, 1.0, lower=100.0, upper=200.0, assumed_inside=None)
    )
    received.clear()
    sources[0].apply(150.0, 2.0)  # enters the *new* range: report
    assert len(received) == 1
