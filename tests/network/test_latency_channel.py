"""Unit + property tests for the latency-modeled delivery discipline.

The property section drives randomized schedules (seeded, shrinkable via
hypothesis) through a :class:`LatencyChannel` and asserts the three
invariants the batched replay and the protocols rely on:

* per-``(direction, stream)`` FIFO — no message overtakes an earlier one
  of its own flow;
* exactly-once — every sent message is delivered once, whether by its
  engine event or the end-of-run drain;
* the deferred-delivery re-entrancy discipline — a host handler is never
  re-entered, even when late deliveries trigger chains of self-
  corrections.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.accounting import MessageLedger
from repro.network.channel import Channel, SynchronousChannel
from repro.network.latency import (
    ExponentialLatency,
    FixedLatency,
    LatencyChannel,
    UniformLatency,
    as_latency_model,
)
from repro.network.messages import (
    ConstraintMessage,
    MessageKind,
    ProbeRequestMessage,
    UpdateMessage,
)
from repro.runtime.dispatch import DeferredDeliveryMixin
from repro.sim.engine import SimulationEngine


def make_channel(model, n_sources=4):
    engine = SimulationEngine()
    ledger = MessageLedger()
    channel = LatencyChannel(ledger, engine, model)
    server_log = []
    channel.bind_server(lambda m: server_log.append((m, engine.now)))
    source_logs = {i: [] for i in range(n_sources)}
    for i in range(n_sources):
        channel.bind_source(i, lambda m, i=i: source_logs[i].append(m))
    return engine, ledger, channel, server_log, source_logs


# ----------------------------------------------------------------------
# Models
# ----------------------------------------------------------------------
class TestModels:
    def test_as_latency_model_coercions(self):
        assert as_latency_model(None) is None
        assert as_latency_model(0.5) == FixedLatency(0.5, 0.5)
        assert as_latency_model(0) == FixedLatency(0.0, 0.0)
        model = UniformLatency(0.1, 0.2, seed=3)
        assert as_latency_model(model) is model

    def test_invalid_latencies_rejected(self):
        with pytest.raises(ValueError):
            as_latency_model(-1.0)
        with pytest.raises(TypeError):
            as_latency_model(True)
        with pytest.raises(TypeError):
            as_latency_model("fast")
        with pytest.raises(ValueError):
            FixedLatency(-0.1, 0.0)
        with pytest.raises(ValueError):
            UniformLatency(0.5, 0.1)
        with pytest.raises(ValueError):
            ExponentialLatency(-1.0, 0.0)

    def test_models_are_hashable_values(self):
        assert hash(FixedLatency.symmetric(1.0)) == hash(FixedLatency(1.0, 1.0))
        assert UniformLatency(0.0, 1.0, seed=2) == UniformLatency(0.0, 1.0, 2)

    def test_seeded_samplers_are_reproducible_and_independent(self):
        model = UniformLatency(0.0, 1.0, seed=9)
        a, b = model.make_sampler(), model.make_sampler()
        draws_a = [a(True) for _ in range(5)]
        # Uplink draws do not perturb downlink draws.
        [b(False) for _ in range(50)]
        assert [b(True) for _ in range(5)] == draws_a

    def test_per_channel_samplers_draw_distinct_sequences(self):
        """Regression: sharded assemblies build one sampler per channel;
        shard k must not replay shard j's delay sequence."""
        model = UniformLatency(0.0, 1.0, seed=9)
        shard0 = model.make_sampler(0)
        shard1 = model.make_sampler(1)
        seq0 = [shard0(True) for _ in range(8)]
        seq1 = [shard1(True) for _ in range(8)]
        assert seq0 != seq1
        # ... while staying deterministic per (seed, channel).
        replay = model.make_sampler(1)
        assert [replay(True) for _ in range(8)] == seq1

    def test_synchronous_channel_is_channel(self):
        assert SynchronousChannel is Channel


# ----------------------------------------------------------------------
# Delivery discipline
# ----------------------------------------------------------------------
class TestDelivery:
    def test_zero_latency_delivers_inline(self):
        engine, ledger, channel, server_log, _ = make_channel(
            FixedLatency(0.0, 0.0)
        )
        channel.send_to_server(UpdateMessage(stream_id=1, time=0.0, value=5.0))
        assert len(server_log) == 1
        assert channel.in_flight_count == 0
        assert channel.deferred_delivered_count == 0

    def test_positive_latency_defers_until_engine_reaches_time(self):
        engine, ledger, channel, server_log, _ = make_channel(
            FixedLatency(uplink=2.0, downlink=1.0)
        )
        channel.send_to_server(UpdateMessage(stream_id=1, time=0.0, value=5.0))
        assert server_log == []
        assert channel.in_flight_count == 1
        engine.run(until=1.9)
        assert server_log == []
        engine.run(until=2.0)
        assert len(server_log) == 1
        message, delivered_at = server_log[0]
        assert delivered_at == 2.0
        assert message.time == 0.0  # send timestamp preserved
        assert channel.in_flight_count == 0
        assert channel.deferred_delivered_count == 1

    def test_ledger_charged_at_send_time(self):
        engine, ledger, channel, server_log, _ = make_channel(
            FixedLatency.symmetric(5.0)
        )
        channel.send_to_server(UpdateMessage(stream_id=0, time=0.0, value=1.0))
        assert ledger.count(MessageKind.UPDATE) == 1  # before delivery

    def test_probe_round_trip_stays_synchronous(self):
        engine, ledger, channel, server_log, source_logs = make_channel(
            FixedLatency.symmetric(10.0)
        )
        channel.send_to_source(ProbeRequestMessage(stream_id=2, time=0.0))
        assert len(source_logs[2]) == 1  # delivered inline despite latency
        assert channel.in_flight_count == 0

    def test_per_stream_fifo_clamps_overtaking(self):
        """A second send of the same flow with a shorter delay must not
        arrive before the first."""
        engine, ledger, channel, server_log, _ = make_channel(
            FixedLatency(uplink=5.0, downlink=0.0)
        )
        channel.send_to_server(UpdateMessage(stream_id=1, time=0.0, value=1.0))
        # Shrink the delay under the first message's remaining flight.
        channel._sample = lambda is_uplink: 1.0
        engine.schedule_at(
            2.0,
            lambda: channel.send_to_server(
                UpdateMessage(stream_id=1, time=2.0, value=2.0)
            ),
        )
        engine.run()
        values = [m.value for m, _ in server_log]
        assert values == [1.0, 2.0]
        times = [at for _, at in server_log]
        assert times == [5.0, 5.0]  # second clamped to the first's arrival

    def test_zero_draw_never_overtakes_in_flight_flow_mate(self):
        """Regression: a zero-sampled delay must not deliver inline while
        an earlier message of the same (direction, stream) flow is still
        in flight — it joins the heap at the flow's FIFO floor."""
        engine, ledger, channel, server_log, _ = make_channel(
            FixedLatency(uplink=5.0, downlink=0.0)
        )
        channel.send_to_server(UpdateMessage(stream_id=1, time=0.0, value=1.0))
        channel._sample = lambda is_uplink: 0.0
        channel.send_to_server(UpdateMessage(stream_id=1, time=0.0, value=2.0))
        assert server_log == []  # the zero draw queued behind its mate
        assert channel.in_flight_count == 2
        engine.run()
        assert [m.value for m, _ in server_log] == [1.0, 2.0]
        # An idle flow's zero draw still delivers inline.
        channel.send_to_server(UpdateMessage(stream_id=1, time=6.0, value=3.0))
        assert [m.value for m, _ in server_log] == [1.0, 2.0, 3.0]

    def test_flow_bookkeeping_prunes_after_soak(self):
        """Regression: ``_flow_in_flight`` / ``_fifo_floor`` entries for
        settled flows were never pruned, so a long run leaked one dict
        entry per (direction, stream) flow ever used — and a stale floor
        could clamp a send long after its flow went idle."""
        engine, ledger, channel, server_log, _ = make_channel(
            UniformLatency(0.1, 0.5, seed=2)
        )
        for i in range(500):
            engine.schedule_at(
                float(i),
                lambda i=i: channel.send_to_server(
                    UpdateMessage(stream_id=i % 4, time=float(i), value=float(i))
                ),
            )
        engine.run()
        assert channel.in_flight_count == 0
        assert len(server_log) == 500
        assert channel._flow_in_flight == {}
        assert channel._fifo_floor == {}

    def test_unrelated_streams_may_overtake(self):
        engine, ledger, channel, server_log, _ = make_channel(
            FixedLatency(uplink=5.0, downlink=0.0)
        )
        channel.send_to_server(UpdateMessage(stream_id=1, time=0.0, value=1.0))
        channel._sample = lambda is_uplink: 1.0
        engine.schedule_at(
            1.0,
            lambda: channel.send_to_server(
                UpdateMessage(stream_id=2, time=1.0, value=2.0)
            ),
        )
        engine.run()
        assert [m.stream_id for m, _ in server_log] == [2, 1]

    def test_drain_in_flight_delivers_everything_including_cascades(self):
        engine, ledger, channel, server_log, source_logs = make_channel(
            FixedLatency.symmetric(100.0)
        )
        # The server reacts to the drained update by sending a (also
        # delayed) constraint; drain must chase the cascade.
        channel.bind_server(
            lambda m: channel.send_to_source(
                ConstraintMessage(stream_id=m.stream_id, time=m.time)
            )
        )
        channel.send_to_server(UpdateMessage(stream_id=3, time=0.0, value=1.0))
        assert channel.in_flight_count == 1
        drained = channel.drain_in_flight()
        assert drained == 2  # the update and the constraint it triggered
        assert channel.in_flight_count == 0
        assert len(source_logs[3]) == 1

    def test_unbound_endpoints_raise_at_send(self):
        engine = SimulationEngine()
        channel = LatencyChannel(
            MessageLedger(), engine, FixedLatency.symmetric(1.0)
        )
        with pytest.raises(RuntimeError):
            channel.send_to_server(UpdateMessage(0, 0.0, 1.0))
        channel.bind_server(lambda m: None)
        with pytest.raises(RuntimeError):
            channel.send_to_source(ProbeRequestMessage(stream_id=9, time=0.0))

    def test_two_identical_runs_deliver_identically(self):
        def run_once():
            engine, ledger, channel, server_log, _ = make_channel(
                UniformLatency(0.5, 3.0, seed=11)
            )
            for i in range(20):
                engine.schedule_at(
                    float(i),
                    lambda i=i: channel.send_to_server(
                        UpdateMessage(stream_id=i % 4, time=float(i), value=i)
                    ),
                )
            engine.run()
            channel.drain_in_flight()
            return [(m.stream_id, m.value, at) for m, at in server_log]

        assert run_once() == run_once()


# ----------------------------------------------------------------------
# Properties: randomized schedules (seeded, shrinkable)
# ----------------------------------------------------------------------
N_STREAMS = 5


@st.composite
def schedules(draw):
    """A random interleaving of sends: (send time, stream, direction)."""
    n = draw(st.integers(1, 40))
    events = draw(
        st.lists(
            st.tuples(
                st.floats(0.0, 50.0, allow_nan=False, allow_infinity=False),
                st.integers(0, N_STREAMS - 1),
                st.booleans(),
            ),
            min_size=n,
            max_size=n,
        )
    )
    return sorted(events)


@st.composite
def latency_models(draw):
    kind = draw(st.sampled_from(["fixed", "uniform", "exponential"]))
    seed = draw(st.integers(0, 2**20))
    if kind == "fixed":
        return FixedLatency(
            uplink=draw(st.floats(0.0, 10.0)),
            downlink=draw(st.floats(0.0, 10.0)),
        )
    if kind == "uniform":
        low = draw(st.floats(0.0, 5.0))
        return UniformLatency(
            low=low, high=low + draw(st.floats(0.0, 5.0)), seed=seed
        )
    return ExponentialLatency(
        mean_uplink=draw(st.floats(0.0, 5.0)),
        mean_downlink=draw(st.floats(0.0, 5.0)),
        seed=seed,
    )


@given(schedules(), latency_models(), st.booleans())
@settings(max_examples=80, deadline=None)
def test_every_message_delivered_exactly_once_in_flow_order(
    schedule, model, use_horizon
):
    engine, ledger, channel, server_log, source_logs = make_channel(
        model, n_sources=N_STREAMS
    )
    sent = []

    def send(time, stream_id, uplink):
        seq = len(sent)
        sent.append((uplink, stream_id, seq))
        if uplink:
            channel.send_to_server(
                UpdateMessage(stream_id=stream_id, time=time, value=float(seq))
            )
        else:
            channel.send_to_source(
                ConstraintMessage(stream_id=stream_id, time=time, lower=seq)
            )

    delivered = []

    def note(m):
        delivered.append(
            (
                m.kind.is_uplink,
                m.stream_id,
                int(m.value if m.kind.is_uplink else m.lower),
                engine.now,
            )
        )

    channel.bind_server(note)  # every handler logs its delivery instant
    for stream_id in range(N_STREAMS):
        channel.bind_source(stream_id, note)
    for time, stream_id, uplink in schedule:
        engine.schedule_at(
            time, lambda t=time, s=stream_id, u=uplink: send(t, s, u)
        )
    if use_horizon:
        engine.run(until=25.0)  # leave some messages in flight...
        channel.drain_in_flight()  # ...and force-drain the rest
    else:
        engine.run()
        channel.drain_in_flight()

    # Exactly once: multiset equality of (direction, stream, seq).
    assert sorted((u, s, q) for u, s, q, _ in delivered) == sorted(sent)
    assert channel.in_flight_count == 0
    # Per-flow FIFO: within one (direction, stream), send order holds.
    for uplink in (True, False):
        for stream_id in range(N_STREAMS):
            flow_sent = [q for u, s, q in sent if u == uplink and s == stream_id]
            flow_got = [
                q
                for u, s, q, _ in delivered
                if u == uplink and s == stream_id
            ]
            assert flow_got == flow_sent
    # Delivery times never decrease while the engine drives them.
    engine_times = [at for *_, at in delivered]
    assert engine_times == sorted(engine_times)


@given(
    st.floats(0.5, 10.0, allow_nan=False, allow_infinity=False),
    st.floats(0.0, 0.4, allow_nan=False, allow_infinity=False),
    st.integers(0, N_STREAMS - 1),
)
@settings(max_examples=60, deadline=None)
def test_post_drain_zero_draw_clamps_to_fifo_floor(delay, later_draw, stream):
    """Regression: a flow-mate force-delivered at a *future* heap time
    (``drain_in_flight`` with the clock behind the heap) left no floor,
    so a subsequent zero/short draw on the flow delivered inline —
    overtaking the drained mate in delivery-time order.  The floor must
    outlive the drained flow and clamp the later send."""
    engine, ledger, channel, server_log, _ = make_channel(
        FixedLatency(uplink=delay, downlink=0.0), n_sources=N_STREAMS
    )
    channel.send_to_server(UpdateMessage(stream_id=stream, time=0.0, value=1.0))
    channel.drain_in_flight()  # delivered at heap time `delay`; clock still 0
    assert engine.now < delay
    channel._sample = lambda is_uplink: later_draw  # shorter than the floor
    channel.send_to_server(UpdateMessage(stream_id=stream, time=0.0, value=2.0))
    # Not inline, and clamped to the drained mate's arrival time.
    assert [m.value for m, _ in server_log] == [1.0]
    engine.run()
    assert server_log[1][0].value == 2.0 and server_log[1][1] == delay
    assert channel.in_flight_count == 0


class ReentrancyProbe(DeferredDeliveryMixin):
    """A host asserting its handler is never re-entered, while reacting
    to every delivery with further (delayed) traffic."""

    def __init__(self, channel):
        self.channel = channel
        self.depth = 0
        self.max_depth = 0
        self.handled = 0
        self._init_delivery()
        channel.bind_server(self._receive)

    def _receive(self, message):
        self._deliver(message)

    def _handle_delivery(self, message):
        self.depth += 1
        self.max_depth = max(self.max_depth, self.depth)
        self.handled += 1
        try:
            if self.handled < 60:  # react, but terminate the cascade
                self.channel.send_to_source(
                    ConstraintMessage(
                        stream_id=message.stream_id,
                        time=message.time,
                        lower=0.0,
                        upper=0.0,
                        assumed_inside=True,
                    )
                )
        finally:
            self.depth -= 1


@given(schedules(), latency_models())
@settings(max_examples=40, deadline=None)
def test_deferred_delivery_discipline_never_reentered(schedule, model):
    engine = SimulationEngine()
    ledger = MessageLedger()
    channel = LatencyChannel(ledger, engine, model)
    host = ReentrancyProbe(channel)

    def reactive_source(stream_id):
        # Every constraint triggers a self-correcting update, the
        # adversarial cascade for the delivery discipline.
        def handle(message):
            if ledger.count(MessageKind.UPDATE) < 80:
                channel.send_to_server(
                    UpdateMessage(
                        stream_id=stream_id, time=message.time, value=1.0
                    )
                )

        return handle

    for i in range(N_STREAMS):
        channel.bind_source(i, reactive_source(i))
    for time, stream_id, _ in schedule:
        engine.schedule_at(
            time,
            lambda s=stream_id, t=time: channel.send_to_server(
                UpdateMessage(stream_id=s, time=t, value=0.0)
            ),
        )
    engine.run()
    channel.drain_in_flight()
    assert host.max_depth <= 1
    assert channel.in_flight_count == 0
