"""What a latency-modeled constraint batch rests on, and the values a
deployment accepts as a latency.

The batch draws its downlink delays as one column
(``Sampler.sample_many``), and its byte identity with the per-message
loop rests on that column being exactly the ``m`` scalar draws the
messages would have made — leaving the generator where they would have
left it.  A zero-mean or fixed direction draws nothing.  Its rows take
no engine event each: one live event per channel sits at the in-flight
head's reserved ``(time, seq)``, the place the head's own event would
have held among same-instant events.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Deployment
from repro.network.accounting import MessageLedger
from repro.network.latency import (
    BLOCK,
    ExponentialLatency,
    FixedLatency,
    LatencyChannel,
    UniformLatency,
    as_latency_model,
)
from repro.network.messages import UpdateMessage
from repro.sim.engine import SimulationEngine

MODELS = [
    FixedLatency(0.0, 0.0),
    FixedLatency(0.3, 1.5),
    UniformLatency(0.1, 3.0, seed=4),
    UniformLatency(1.0, 8.0, seed=7),
    ExponentialLatency(1.0, 0.0, seed=4),
    ExponentialLatency(0.0, 2.5, seed=4),
]


@pytest.mark.parametrize("model", MODELS, ids=repr)
@pytest.mark.parametrize("uplink", [True, False], ids=["uplink", "downlink"])
@pytest.mark.parametrize("m", [0, 1, 7, 1000])
@pytest.mark.parametrize("channel", [0, 1])
def test_sample_many_is_m_scalar_draws(model, uplink, m, channel):
    batch, scalar = model.make_sampler(channel), model.make_sampler(channel)
    column = batch.sample_many(uplink, m)
    assert column.shape == (m,)
    assert column.tolist() == [scalar(uplink) for _ in range(m)]
    # Both generators are left in the same place: the next draws agree,
    # in this direction and the other.
    assert [batch(uplink) for _ in range(3)] == [scalar(uplink) for _ in range(3)]
    assert batch(not uplink) == scalar(not uplink)


@pytest.mark.parametrize(
    "model, uplink",
    [
        (ExponentialLatency(1.0, 0.0, seed=4), False),
        (ExponentialLatency(0.0, 1.0, seed=4), True),
        (FixedLatency(0.0, 2.0), True),
    ],
    ids=["exponential-downlink", "exponential-uplink", "fixed"],
)
def test_a_zero_direction_draws_nothing(model, uplink):
    sampler, fresh = model.make_sampler(), model.make_sampler()
    assert sampler.sample_many(uplink, 5).tolist() == [0.0] * 5
    assert sampler(uplink) == 0.0
    # The other direction's sequence is untouched.
    assert [sampler(not uplink) for _ in range(4)] == [
        fresh(not uplink) for _ in range(4)
    ]


@pytest.mark.parametrize(
    "latency",
    [2, 2.0, np.int64(2), np.int32(2), np.uint8(2), np.float32(2.0), np.float64(2.0)],
    ids=lambda value: type(value).__name__,
)
def test_numpy_real_latencies_are_fixed_delays(latency):
    assert as_latency_model(latency) == FixedLatency(2.0, 2.0)
    assert Deployment.single(latency=latency).latency == FixedLatency(2.0, 2.0)


@pytest.mark.parametrize(
    "latency",
    [True, False, np.bool_(True), np.bool_(False), "2", 2j],
    ids=repr,
)
def test_booleans_and_non_reals_are_refused(latency):
    with pytest.raises(TypeError):
        as_latency_model(latency)
    with pytest.raises(TypeError):
        Deployment.single(latency=latency)


def test_a_negative_numpy_latency_is_a_value_error():
    with pytest.raises(ValueError):
        as_latency_model(np.float32(-1.0))


def test_the_live_event_holds_the_heads_reserved_place():
    """Channel *a* re-arms at its second message only after delivering
    its first, but that message's sequence number was reserved before
    channel *b*'s same-instant send: *a* still delivers first, as the
    message's own engine event would have."""
    engine = SimulationEngine()
    ledger = MessageLedger()
    log = []
    channels = {}
    for name, delays in (("a", [0.5, 1.0]), ("b", [1.0])):
        channel = LatencyChannel(ledger, engine, FixedLatency(0.0, 0.0))
        channel._sample = lambda is_uplink, draws=iter(delays): next(draws)
        channel.bind_server(
            lambda m, name=name: log.append((name, m.stream_id, engine.now))
        )
        channels[name] = channel
    channels["a"].send_to_server(UpdateMessage(0, 0.0, 1.0))
    channels["a"].send_to_server(UpdateMessage(1, 0.0, 1.0))
    channels["b"].send_to_server(UpdateMessage(2, 0.0, 1.0))
    assert engine.pending == 2  # one live event per channel
    engine.run()
    assert log == [("a", 0, 0.5), ("a", 1, 1.0), ("b", 2, 1.0)]
    assert engine.pending == 0


def test_an_earlier_delivery_pulls_the_live_event_forward():
    engine = SimulationEngine()
    channel = LatencyChannel(MessageLedger(), engine, FixedLatency(0.0, 0.0))
    delays = iter([5.0, 1.0])
    channel._sample = lambda is_uplink: next(delays)
    log = []
    channel.bind_server(lambda m: log.append((m.stream_id, engine.now)))
    channel.send_to_server(UpdateMessage(1, 0.0, 1.0))
    engine.schedule_at(
        1.0, lambda: channel.send_to_server(UpdateMessage(2, 1.0, 1.0))
    )
    engine.run()
    assert log == [(2, 2.0), (1, 5.0)]


@st.composite
def _draw_calls(draw):
    """An interleaving of scalar draws (``None``) and ``sample_many(m)``
    calls — ``m`` zero, small, about a block, or several blocks — in
    either direction."""
    sizes = st.sampled_from([None, None, None, 0, 1, 5, BLOCK - 1, BLOCK,
                             BLOCK + 1, 3 * BLOCK + 7])
    return draw(st.lists(st.tuples(st.booleans(), sizes), max_size=30))


@pytest.mark.parametrize("model", MODELS, ids=repr)
@given(calls=_draw_calls(), channel=st.integers(0, 2))
@settings(max_examples=40, deadline=None)
def test_buffered_draws_are_the_unbuffered_sequence(model, calls, channel):
    """Whatever mix of scalar draws and columns a channel asks for, each
    direction yields the values of one unbuffered scalar draw after
    another — the buffer never reorders, skips or repeats a draw."""
    sampler = model.make_sampler(channel)
    reference = model.make_sampler(channel)._draw  # the raw draw functions
    for uplink, m in calls:
        if m is None:
            got = [sampler(uplink)]
        else:
            column = sampler.sample_many(uplink, m)
            assert column.shape == (m,) and column.dtype == np.float64
            got = column.tolist()
        assert got == [float(reference[uplink]()) for _ in got]
