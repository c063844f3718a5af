"""Latency-modeled delivery: the channel discipline that relaxes
correctness requirement 2.

The paper assumes constraint resolution is atomic with respect to the
data; :class:`~repro.network.channel.SynchronousChannel` models that with
zero-virtual-latency delivery.  :class:`LatencyChannel` relaxes exactly
the *data-propagation* half of the assumption: update reports (uplink)
and constraint deployments (downlink) spend a modeled delay in flight,
held in a deterministic priority queue keyed by ``(virtual delivery
time, send sequence)`` and drained through the simulation engine's event
loop.  Probe round-trips stay synchronous — they are the protocols'
resolution RPC, and requirement 2 keeps *resolution* atomic; what goes
stale under latency is the server's belief between resolutions
(DESIGN.md §8).  This channel and the engine's event loop are the only
latency engine: every latency-modeled run is in-process, and nothing
steps a channel from outside (DESIGN.md §17).

Determinism and ordering guarantees:

* **Deterministic replay.**  Delays come from a :class:`LatencyModel` —
  fixed, or a seeded distribution over
  :class:`repro.sim.rng.RandomStreams` — so two runs with the same seed
  deliver every message at the same virtual instant in the same order.
* **Per-stream FIFO.**  Messages of one stream and direction never
  overtake each other: a draw that would land earlier than a previously
  scheduled delivery for the same ``(direction, stream)`` is clamped to
  it (TCP-like ordering per flow).
* **Exactly-once.**  Every sent message is delivered exactly once —
  either by the channel's one live engine event, which sits where the
  in-flight head's own event would (its ``(time, seq)``, the sequence
  number reserved at send), or by a forced
  :meth:`LatencyChannel.drain_in_flight` at end of replay.
* **Zero delay is synchronous.**  A message whose sampled delay is zero
  is delivered inline, byte-for-byte the synchronous discipline — which
  is what makes ``latency=0`` runs ledger-identical to
  ``SynchronousChannel`` runs (tests/network/test_latency_equivalence).
"""

from __future__ import annotations

import heapq
import numbers
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from repro.network.accounting import MessageLedger
from repro.network.channel import Channel
from repro.network.messages import Message
from repro.sim.engine import SimulationEngine
from repro.sim.rng import RandomStreams


def _require_non_negative(name: str, value: float) -> float:
    value = float(value)
    if not value >= 0.0:  # also rejects NaN
        raise ValueError(f"{name} must be non-negative, got {value}")
    if value == float("inf"):
        raise ValueError(f"{name} must be finite")
    return value


def _constant(delay: float, size: int | None = None):
    """A direction that draws nothing: *delay*, or a column of it."""
    return delay if size is None else np.full(size, delay)


#: Delays a :class:`Sampler` draws from a direction's generator at once.
BLOCK = 256


class Sampler:
    """A channel's delay draws, one RNG stream per direction.

    ``sampler(is_uplink)`` is the next delay of a direction and
    ``sampler.sample_many(is_uplink, m)`` the next ``m`` as a column.
    Each direction is a ``draw(size=None)`` function — a numpy generator
    method bound to its parameters, or :func:`_constant` — called for
    :data:`BLOCK` values at a time: a scalar draw pops the next one off
    the direction's buffer, and a column takes the buffer's rest first,
    then draws what is missing directly.  Either way each direction
    yields exactly the sequence its scalar calls would
    (tests/network/test_latency_batch.py pins it per model), so the
    buffer changes no run.  It is channel state, though: a durable
    latency run's snapshot (ROADMAP 14(d)) has to carry the undrawn
    buffers with the generators.
    """

    __slots__ = ("_draw", "_buffer")

    def __init__(self, uplink: Callable, downlink: Callable) -> None:
        #: Indexed by ``is_uplink``; a buffer holds its next value last.
        self._draw = (downlink, uplink)
        self._buffer = ([], [])

    def __call__(self, is_uplink: bool) -> float:
        buffer = self._buffer[is_uplink]
        if not buffer:
            buffer.extend(reversed(self._draw[is_uplink](BLOCK).tolist()))
        return buffer.pop()

    def sample_many(self, is_uplink: bool, m: int) -> np.ndarray:
        buffer = self._buffer[is_uplink]
        cut = max(len(buffer) - m, 0)
        head = buffer[cut:][::-1]
        del buffer[cut:]
        if len(head) == m:
            return np.array(head, dtype=np.float64)
        return np.concatenate((head, self._draw[is_uplink](m - len(head))))


def _direction_streams(seed: int, channel: int):
    streams = RandomStreams(seed=seed)
    return (
        streams.get(f"latency-uplink-{channel}"),
        streams.get(f"latency-downlink-{channel}"),
    )


@dataclass(frozen=True)
class LatencyModel:
    """Base class of delivery-delay models.

    Models are frozen values so a :class:`repro.api.Deployment` carrying
    one stays hashable and comparable; each channel materializes its own
    :class:`Sampler` via :meth:`make_sampler`, passing its channel index
    so a sharded assembly's shards draw from distinct (but per-run
    deterministic) RNG streams instead of replaying one sequence.
    """

    def make_sampler(self, channel: int = 0) -> Sampler:
        raise NotImplementedError


@dataclass(frozen=True)
class FixedLatency(LatencyModel):
    """A constant per-direction delay (deterministic, no RNG).

    ``FixedLatency(0.0, 0.0)`` is the degenerate model every message of
    which is delivered synchronously.
    """

    uplink: float = 0.0
    downlink: float = 0.0

    def __post_init__(self) -> None:
        _require_non_negative("uplink latency", self.uplink)
        _require_non_negative("downlink latency", self.downlink)

    @classmethod
    def symmetric(cls, delay: float) -> "FixedLatency":
        """The same fixed *delay* in both directions."""
        return cls(uplink=float(delay), downlink=float(delay))

    def make_sampler(self, channel: int = 0) -> Sampler:
        return Sampler(
            partial(_constant, float(self.uplink)),
            partial(_constant, float(self.downlink)),
        )


@dataclass(frozen=True)
class UniformLatency(LatencyModel):
    """Per-message delays drawn uniformly from ``[low, high]``.

    Draws come from two named :class:`~repro.sim.rng.RandomStreams`
    generators (one per direction), so uplink draw counts never perturb
    downlink delays and runs are reproducible in *seed*.
    """

    low: float
    high: float
    seed: int = 0

    def __post_init__(self) -> None:
        _require_non_negative("low latency bound", self.low)
        _require_non_negative("high latency bound", self.high)
        if self.high < self.low:
            raise ValueError(
                f"high bound {self.high} below low bound {self.low}"
            )

    def make_sampler(self, channel: int = 0) -> Sampler:
        low, high = float(self.low), float(self.high)
        return Sampler(
            *(
                partial(generator.uniform, low, high)
                for generator in _direction_streams(self.seed, channel)
            )
        )


@dataclass(frozen=True)
class ExponentialLatency(LatencyModel):
    """Per-message exponential delays with the given per-direction means.

    The memoryless model of queueing-style network delay; seeded exactly
    like :class:`UniformLatency`.  A zero-mean direction draws nothing.
    """

    mean_uplink: float
    mean_downlink: float
    seed: int = 0

    def __post_init__(self) -> None:
        _require_non_negative("mean uplink latency", self.mean_uplink)
        _require_non_negative("mean downlink latency", self.mean_downlink)

    def make_sampler(self, channel: int = 0) -> Sampler:
        means = (float(self.mean_uplink), float(self.mean_downlink))
        return Sampler(
            *(
                partial(generator.exponential, mean)
                if mean
                else partial(_constant, 0.0)
                for mean, generator in zip(
                    means, _direction_streams(self.seed, channel)
                )
            )
        )


def as_latency_model(latency) -> LatencyModel | None:
    """Coerce a deployment's ``latency=`` value to a model.

    ``None`` means the synchronous discipline; a bare real number —
    Python's or numpy's, never a boolean — is a symmetric fixed delay
    (``0.0`` still selects :class:`LatencyChannel`, with inline delivery
    — the differential-testing configuration); a :class:`LatencyModel`
    passes through.
    """
    if latency is None:
        return None
    if isinstance(latency, LatencyModel):
        return latency
    if isinstance(latency, (bool, np.bool_)):
        raise TypeError("latency must be a number or LatencyModel, not bool")
    if isinstance(latency, numbers.Real):
        return FixedLatency.symmetric(_require_non_negative("latency", latency))
    raise TypeError(
        f"latency must be None, a non-negative number, or a LatencyModel, "
        f"got {latency!r}"
    )


class LatencyChannel(Channel):
    """A channel whose data-plane messages spend modeled time in flight.

    Parameters
    ----------
    ledger:
        Message accounting, charged at *send* time (a message costs the
        same however long it flies; phase attribution follows the phase
        in force when the protocol emitted it).
    engine:
        The simulation engine whose event loop drains deliveries.
    model:
        The per-direction delay model.

    Probe requests/replies are always delivered inline (see the module
    docstring), so a probe batch may go columnar; updates and
    constraints with a positive sampled delay are held in the in-flight
    heap at ``send time + delay``, clamped to per-``(direction,
    stream)`` FIFO, under an engine sequence number reserved at send.
    One live engine event per channel, at the heap head's ``(time,
    seq)``, delivers them — where each message's own event would have
    fired first.  A constraint batch is routed row by row under the
    same rule, without a message each (:meth:`send_constraint_rows`).

    What one held message costs (DESIGN.md §8.5): a buffered delay draw
    (:class:`Sampler`), the FIFO floor and flow count under one int key
    per flow, one push onto the in-flight heap — plus the live event's
    move when it becomes the head — and, at delivery, one pop and one
    hand-off to the handler its send looked up.
    """

    constraints_inline = False

    def __init__(
        self,
        ledger: MessageLedger,
        engine: SimulationEngine,
        model: LatencyModel,
        channel_index: int = 0,
    ) -> None:
        super().__init__(ledger)
        self.engine = engine
        self.model = model
        self.channel_index = int(channel_index)
        self._sample = model.make_sampler(self.channel_index)
        #: The in-flight heap: ``(delivery time, reserved engine seq,
        #: flow, item, target)``.  A flow is one ``(direction, stream)``
        #: pair as the int ``2 * stream_id + is_uplink``.  The item is a
        #: message, or a constraint batch's row as the tuple of its
        #: message's fields; the target is ``None`` for an uplink (the
        #: server handler at delivery), else the source handler the send
        #: looked up (a row's: its population).
        self._in_flight: list[tuple] = []
        #: The engine event at the heap head's position, if any.
        self._live = None
        #: True while the live event's action delivers: holds it causes
        #: leave the re-arm to its end.
        self._delivering = False
        #: Per-flow FIFO floor: no later send of the same flow may be
        #: delivered before an earlier one.
        self._fifo_floor: dict[int, float] = {}
        #: Per-flow count of messages currently in flight; a zero-delay
        #: draw may only deliver inline while its flow's count is zero
        #: (otherwise it would overtake an earlier in-flight message).
        self._flow_in_flight: dict[int, int] = {}
        #: Deliveries that spent time in flight (inline ones are the
        #: synchronous discipline's, no evidence of staleness).
        self._deferred_delivered_count = 0

    # ------------------------------------------------------------------
    # Introspection (end-of-run drain, staleness classification)
    # ------------------------------------------------------------------
    @property
    def in_flight_count(self) -> int:
        """Number of messages currently held in flight."""
        return len(self._in_flight)

    @property
    def deferred_delivered_count(self) -> int:
        """Deliveries that actually spent time in flight.

        Zero means the run so far is byte-identical to a synchronous
        one — the staleness classifier's provable-prefix evidence.
        """
        return self._deferred_delivered_count

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send_to_server(self, message: Message) -> None:
        if self._server_handler is None:
            raise RuntimeError("no server bound to channel")
        self.ledger.record(message)
        # A probe is the synchronous resolution RPC: it never queues,
        # and never carries flow-ordering obligations.
        if message.is_probe or not self._hold(
            2 * message.stream_id + 1, self._sample(True), message, None
        ):
            self._server_handler(message)

    def send_to_source(self, message: Message) -> None:
        handler = self._source_handler(message.stream_id)  # unbound: raises
        self.ledger.record(message)
        if message.is_probe or not self._hold(
            2 * message.stream_id, self._sample(False), message, handler
        ):
            handler(message)

    def send_constraint_rows(
        self, population, ids, lower, upper, assumed_inside, times
    ) -> None:
        """Route a charged constraint batch as :meth:`send_to_source`
        would each of its messages, in batch order, without building
        them: ``ids[i]`` gets ``[lower[i], upper[i]]`` under the belief
        ``assumed_inside[i]`` (``None``: fresh), sent at ``times[i]``.

        The downlink delays are one :meth:`Sampler.sample_many` column —
        the draws the messages would have made.  A row whose draw and
        flow let it through inline is installed at its own position
        (:meth:`ScalarPopulation.install
        <repro.streams.source.ScalarPopulation.install>`, whose
        self-correction is sent there too); any other joins the heap.
        """
        delays = self._sample.sample_many(False, len(ids)).tolist()
        first = population.first_id
        rows = zip(ids, times, lower, upper, assumed_inside)
        for row, delay in zip(rows, delays):
            stream_id, time, lo, hi, belief = row
            if not self._hold(2 * stream_id, delay, row, population):
                population.install(stream_id - first, lo, hi, belief, time)

    def _hold(self, flow: int, delay: float, item, target) -> bool:
        """The one FIFO rule: ``False`` when *item* of *flow*, drawn
        *delay*, is delivered inline (zero draw, idle flow, no floor
        ahead of the clock), else hold it in flight for *target* and
        ``True``.

        A zero draw behind an in-flight flow-mate — or behind a
        flow-mate force-delivered at a future heap time, whose FIFO
        floor outlives it — joins the heap at the floor instead of
        overtaking it inline.
        """
        now = self.engine.now
        floors = self._fifo_floor
        floor = floors.get(flow)
        counts = self._flow_in_flight
        if (
            delay == 0.0
            and (floor is None or floor <= now)
            and not counts.get(flow)
        ):
            return False
        delivery_time = now + delay
        if floor is not None and delivery_time < floor:
            delivery_time = floor
        floors[flow] = delivery_time
        counts[flow] = counts.get(flow, 0) + 1
        seq = self.engine.reserve()
        heap = self._in_flight
        heapq.heappush(heap, (delivery_time, seq, flow, item, target))
        if heap[0][1] == seq and not self._delivering:
            self._arm()
        return True

    def _arm(self) -> None:
        """Keep the one live engine event at the heap head's reserved
        ``(time, seq)`` — the place the head's own event would hold."""
        live = self._live
        heap = self._in_flight
        if live is not None:
            if heap and live.seq == heap[0][1]:
                return
            live.cancel()
            self._live = None
        if heap:
            time, seq = heap[0][:2]
            self._live = self.engine.schedule_at(
                time, self._deliver_due, label="latency-delivery", seq=seq
            )

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def _deliver_due(self, until: float | None = None) -> None:
        """Deliver every held item due at or before *until*, in heap
        order, then re-arm (:meth:`_arm`).  Holds the deliveries cause
        join the loop; they leave arming to its end.  Without *until*
        this is the live event's action: everything due by now, and
        the event that just fired is the one re-armed.

        A delivery settles its flow: the count is pruned when it
        reaches zero, and the FIFO floor with it — but only once the
        engine clock has caught up to the floor.  A floor still in the
        future (a forced drain just delivered at a future heap time)
        must survive so a subsequent zero-delay send on the flow is
        clamped to it instead of overtaking the drained flow-mate
        inline.
        """
        now = self.engine.now
        spare = None
        if until is None:
            until, spare, self._live = now, self._live, None
        heap = self._in_flight
        counts, floors = self._flow_in_flight, self._fifo_floor
        self._delivering = True
        try:
            while heap and heap[0][0] <= until:
                _, _, flow, item, target = heapq.heappop(heap)
                self._deferred_delivered_count += 1
                count = counts.pop(flow) - 1
                if count:
                    counts[flow] = count
                elif floors[flow] <= now:
                    del floors[flow]
                if target is None:
                    self._server_handler(item)
                elif type(item) is not tuple:
                    target(item)
                else:
                    stream_id, sent, lo, hi, belief = item
                    target.install(
                        stream_id - target.first_id, lo, hi, belief, sent
                    )
        finally:
            self._delivering = False
        if spare is None:
            self._arm()
        elif heap:  # nothing armed meanwhile: the fired event moves
            self._live = self.engine.reschedule(spare, *heap[0][:2])

    def drain_in_flight(self) -> int:
        """Force-deliver every in-flight message, in heap order.

        Used at end of replay so the run's final state reflects all sent
        traffic.  Deliveries may trigger protocol steps that send more
        delayed messages; those join the heap and are drained by the
        same loop.  Returns the number of messages delivered.
        """
        before = self._deferred_delivered_count
        self._deliver_due(float("inf"))
        return self._deferred_delivered_count - before


def make_channel(
    ledger: MessageLedger,
    engine: SimulationEngine,
    latency,
    channel_index: int = 0,
) -> Channel:
    """A deployment's delivery discipline: ``latency=None`` is the
    synchronous channel; anything else (including ``0``) compiles to a
    :class:`LatencyChannel` draining through *engine* — ``latency=0``
    keeps a distinct code path on purpose, so the differential suite can
    prove it byte-identical.  ``channel_index`` salts the model's RNG
    streams so per-shard channels draw independent delay sequences."""
    model = as_latency_model(latency)
    if model is None:
        return Channel(ledger)
    return LatencyChannel(ledger, engine, model, channel_index=channel_index)
