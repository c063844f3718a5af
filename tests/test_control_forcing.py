"""The test seams hold their own contracts.

``control_forcing`` answers :meth:`Channel.bulk_target` with ``None``
only inside its block, on every kind of channel, and refuses a run
whose batches never asked; its delivery recorder notes each message
when it reaches a handler, not when it is sent.  ``trace_cuts.head``
keeps exactly the records at or before its horizon.
"""

import numpy as np
import pytest

from repro.api import Engine, QuerySpec, Workload
from repro.network.accounting import MessageLedger
from repro.network.channel import Channel
from repro.network.latency import FixedLatency, LatencyChannel
from repro.network.messages import (
    ConstraintMessage,
    MessageKind,
    ProbeRequestMessage,
    UpdateMessage,
)
from repro.queries.range_query import RangeQuery
from repro.sim.engine import SimulationEngine
from repro.spatial.trace import SpatialTrace
from repro.streams.source import ScalarPopulation
from control_forcing import per_message, record_deliveries, run_per_message
from trace_cuts import head

CHANNELS = {
    "synchronous": lambda: Channel(MessageLedger()),
    "latency": lambda: LatencyChannel(
        MessageLedger(), SimulationEngine(), FixedLatency(uplink=2.0, downlink=1.0)
    ),
}


def population_on(channel):
    """Three sources as one population on *channel* (values 0, 10, 20)."""
    channel.bind_server(lambda message: None)
    return ScalarPopulation([0.0, 10.0, 20.0], [channel], [(0, 3)])


@pytest.mark.parametrize("kind", sorted(CHANNELS))
def test_inside_the_block_the_gate_declines_every_batch(kind):
    channel = CHANNELS[kind]()
    population = population_on(channel)
    ids = np.array([0, 1, 2])
    assert channel.bulk_target(ids) is population
    with per_message() as consulted:
        assert channel.bulk_target(ids) is None
        assert channel.bulk_target(range(3)) is None
    assert [list(batch) for batch in consulted] == [[0, 1, 2], [0, 1, 2]]
    assert channel.bulk_target(ids) is population  # the gate is back


def test_the_gate_reopens_after_an_exception():
    channel = Channel(MessageLedger())
    population = population_on(channel)
    with pytest.raises(KeyError):
        with per_message():
            raise KeyError("inside the block")
    assert channel.bulk_target(np.array([0, 2])) is population


def test_a_run_whose_batches_never_ask_fails_loudly():
    with pytest.raises(AssertionError, match="no batch consulted"):
        run_per_message(lambda: None)


def test_a_forced_run_leaves_the_columnar_outcome():
    spec = QuerySpec(protocol="zt-nrp", query=RangeQuery(400.0, 600.0))
    workload = Workload.synthetic(n_streams=40, horizon=30.0, seed=3)
    columnar = Engine().run(spec, workload)
    forced = run_per_message(lambda: Engine().run(spec, workload))
    assert forced.ledger == columnar.ledger
    assert forced.final_answer == columnar.final_answer


@pytest.mark.parametrize("direction", ["uplink", "downlink"])
def test_a_recorded_message_is_noted_at_delivery_not_send(direction):
    engine = SimulationEngine()
    channel = LatencyChannel(
        MessageLedger(), engine, FixedLatency(uplink=3.0, downlink=2.0)
    )
    handled = []
    channel.bind_server(lambda message: handled.append(message))
    channel.bind_source(0, lambda message: handled.append(message))
    noted = []
    record_deliveries(channel, lambda m: noted.append((m.kind, engine.now)))
    if direction == "uplink":
        message, due = UpdateMessage(stream_id=0, time=0.0, value=1.0), 3.0
        channel.send_to_server(message)
    else:
        message, due = ConstraintMessage(0, 0.0, 1.0, 2.0), 2.0
        channel.send_to_source(message)
    assert noted == [] and handled == []
    engine.run()
    assert noted == [(message.kind, due)]
    assert handled == [message]  # the wrapped handler still runs


def test_a_recorded_channel_declines_the_gate_and_notes_both_ways():
    channel = Channel(MessageLedger())
    population = population_on(channel)
    ids = np.array([0, 1, 2])
    assert channel.bulk_target(ids) is population
    noted = []
    record_deliveries(channel, noted.append)
    assert channel.bulk_target(ids) is None
    channel.send_to_source(ProbeRequestMessage(stream_id=1, time=0.0))
    assert [(m.kind, m.stream_id) for m in noted] == [
        (MessageKind.PROBE_REQUEST, 1),
        (MessageKind.PROBE_REPLY, 1),
    ]
    assert noted[1].value == 10.0


# ----------------------------------------------------------------------
# trace_cuts.head
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "horizon, kept", [(0.0, 0), (3.0, 3), (3.5, 3), (10.0, 5)]
)
def test_head_keeps_the_records_at_or_before_its_horizon(
    manual_trace, horizon, kept
):
    cut = head(manual_trace, horizon)
    assert cut.horizon == horizon
    assert len(cut) == kept
    assert list(cut) == list(manual_trace)[:kept]
    assert np.array_equal(cut.initial_values, manual_trace.initial_values)
    assert cut.metadata == manual_trace.metadata


def test_head_cuts_a_spatial_trace_by_its_points():
    trace = SpatialTrace(
        initial_points=np.zeros((2, 2)),
        times=np.array([1.0, 2.0, 2.0, 4.0]),
        stream_ids=np.array([0, 1, 0, 1]),
        points=np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0]]),
        horizon=5.0,
    )
    cut = head(trace, 2.0)
    assert cut.horizon == 2.0
    assert cut.stream_ids.tolist() == [0, 1, 0]
    assert cut.points.tolist() == [[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]
    assert np.array_equal(cut.initial_points, trace.initial_points)
