"""The sharded topology: per-shard servers behind one coordinator.

A :class:`ShardedServer` hosts one protocol over a population
partitioned into contiguous shards.  It exposes the *exact* control
plane of :class:`repro.server.server.Server` (``probe``, ``probe_all``,
``deploy``, ``deploy_many``, ``broadcast``, ``state``, ``rank_view``,
``stream_ids``, ``n_streams``, ``now``), so single-server protocols run
on it unmodified; each per-stream operation is routed to the
:class:`ShardServer` owning that stream.

Why the message ledger is byte-identical to a single server:

* **Storage.**  Every shard's :class:`~repro.state.sharding.
  StateShardView` aliases a slice of the coordinator's global
  :class:`~repro.state.table.StreamStateTable`, so the protocol reads
  exactly the values/bounds/masks it would read on one server.
* **Rank order.**  ``rank_view`` returns a :class:`~repro.state.
  sharding.ShardedRankView` — per-shard incremental maintenance plus a
  k-way ``(key, id)`` heap merge — proven order-identical to the
  unsharded ``RankView`` (tests/state/test_sharding.py).
* **Message multiset.**  Probes, deployments and updates are per-stream
  messages; routing them through per-shard channels that share one
  :class:`~repro.network.accounting.MessageLedger` charges the same
  kinds in the same phases.  ``broadcast``/``probe_all`` iterate global
  ids ascending, matching the single server's iteration order; a batch
  (``deploy_many``, ``probe_all``) is cut into consecutive same-shard
  runs handled in order, each columnar on its shard's channel when it
  qualifies (DESIGN.md §12).
* **Delivery order.**  The deferred-delivery re-entrancy discipline
  lives at the *coordinator*: a stale-belief self-correction arriving at
  any shard while the protocol is mid-step is queued in one global FIFO
  and drained after the step, exactly as one server queues it.  (Had
  each shard queued independently, an update on shard B could re-enter
  the protocol while shard A's delivery is still on the stack.)

Both coordinators accept a latency-modeled bus: the per-shard channels
may be :class:`~repro.network.latency.LatencyChannel`s (compiled by the
session builders from ``Deployment(latency=...)``), in which case update
deliveries reach :meth:`ShardedServer._receive_update` at *delivery*
time while probe round-trips stay synchronous (DESIGN.md §8).  The
global delivery FIFO needs no change — a late-arriving self-correction
is just one more deferred delivery — and with ``latency=0`` delivery is
inline, so the byte-identity argument above is untouched.

The spatial stack shards by the same four invariants:
:class:`SpatialShardServer` / :class:`ShardedSpatialServer` mirror the
scalar pair with the point/region message vocabulary and the exact
control plane of :class:`repro.spatial.server.SpatialServer` (``probe``,
``probe_all``, ``deploy(stream_id, region)``, ``state``, ``rank_view``).
Shard views alias the coordinator table's point matrix, container
column, and geometric bbox planes (all lazily allocated on the parent),
so spatial protocols — and the batched AABB quiescence pre-scan — read
the same memory they would on one server.

Both coordinators also have a process-parallel sibling in
``repro/server/transport.py`` (``Deployment.sharded(n,
parallel=True)``): :class:`~repro.server.transport.
TransportShardedServer` for the scalar vocabulary and
:class:`~repro.server.transport.SpatialTransportShardedServer` for the
spatial one, each holding the same control plane and ledger semantics
with the shard populations owned by worker processes (DESIGN.md §10).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.network.channel import Channel
from repro.network.messages import (
    ConstraintMessage,
    Message,
    MessageKind,
    ProbeReplyMessage,
    ProbeRequestMessage,
    UpdateMessage,
)
from repro.protocols.base import FilterProtocol
from repro.runtime.dispatch import DeferredDeliveryMixin
from repro.spatial.messages import (
    PointProbeReplyMessage,
    PointProbeRequestMessage,
    PointUpdateMessage,
    RegionConstraintMessage,
)
from repro.state.sharding import (
    ShardedRankView,
    StateShardView,
    owner_runs,
    validate_shard_alignment,
)
from repro.state.table import StreamStateTable
from repro.streams.control import (
    constraint_columns,
    deploy_columns,
    probe_columns,
)


class ShardServer:
    """One shard's message endpoint: a channel plus a state-shard view.

    Handles the mechanical half of the server role for its id range
    ``[lo, hi)`` — the probe round-trip and constraint transmission,
    recording into the shard table (local rows, which keeps per-shard
    rank views incremental) — and forwards protocol-facing update
    deliveries to the coordinator, which owns ordering and the protocol.
    """

    def __init__(
        self,
        coordinator: "ShardedServer",
        channel: Channel,
        state: StateShardView,
    ) -> None:
        self._coordinator = coordinator
        self.channel = channel
        self.state = state
        self.lo = state.lo
        self.hi = state.hi
        self._probe_reply: ProbeReplyMessage | None = None
        self._awaiting_probe = False
        channel.bind_server(self._handle_message)

    def probe(self, stream_id: int, time: float) -> float:
        """One probe round-trip to a source this shard owns."""
        self._awaiting_probe = True
        self._probe_reply = None
        self.channel.send_to_source(
            ProbeRequestMessage(stream_id=stream_id, time=time)
        )
        self._awaiting_probe = False
        if self._probe_reply is None:  # pragma: no cover - defensive
            raise RuntimeError(f"source {stream_id} did not reply to probe")
        reply = self._probe_reply
        self.state.record_report(
            reply.stream_id - self.lo, reply.value, reply.time
        )
        return reply.value

    def deploy(
        self,
        stream_id: int,
        lower: float,
        upper: float,
        assumed_inside: bool | None,
        time: float,
    ) -> None:
        """Install a constraint at a source this shard owns."""
        self.state.record_deploy(stream_id - self.lo, lower, upper)
        self.channel.send_to_source(
            ConstraintMessage(
                stream_id=stream_id,
                time=time,
                lower=lower,
                upper=upper,
                assumed_inside=assumed_inside,
            )
        )

    def _handle_message(self, message: Message) -> None:
        if message.kind is MessageKind.PROBE_REPLY:
            if not self._awaiting_probe:  # pragma: no cover - defensive
                raise RuntimeError("unsolicited probe reply")
            assert isinstance(message, ProbeReplyMessage)
            self._probe_reply = message
            return
        if message.kind is MessageKind.UPDATE:
            assert isinstance(message, UpdateMessage)
            self._coordinator._receive_update(message)
            return
        raise RuntimeError(  # pragma: no cover - defensive
            f"shard server received unexpected {message.kind}"
        )


class ShardedServer(DeferredDeliveryMixin):
    """Coordinator over N shard servers; Server-compatible control plane.

    Parameters
    ----------
    channels:
        One :class:`Channel` per shard (all sharing one ledger); the
        shard's sources must already be bound to it with *global*
        stream ids.
    protocol:
        The hosted protocol (runs once, at the coordinator).
    ranges:
        Contiguous ``(lo, hi)`` id ranges, one per channel, covering
        ``range(n_streams)`` in order (see
        :func:`repro.state.sharding.shard_ranges`).
    """

    def __init__(
        self,
        channels: Sequence[Channel],
        protocol: FilterProtocol,
        ranges: Sequence[tuple[int, int]],
        state_factory=None,
    ) -> None:
        if len(channels) != len(ranges):
            raise ValueError("need exactly one channel per shard range")
        if not ranges:
            raise ValueError("need at least one shard")
        self.protocol = protocol
        self._now = 0.0
        n = ranges[-1][1]
        self._state = (state_factory or StreamStateTable)(n)
        self.shards = [
            ShardServer(self, channel, StateShardView(self._state, lo, hi))
            for channel, (lo, hi) in zip(channels, ranges)
        ]
        validate_shard_alignment(
            self._state, [shard.state for shard in self.shards]
        )
        self._shard_of = np.empty(n, dtype=np.int64)
        for index, (lo, hi) in enumerate(ranges):
            self._shard_of[lo:hi] = index
        self._init_delivery()

    # ------------------------------------------------------------------
    # Lifecycle (Server-compatible surface)
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Virtual time of the most recent activity."""
        return self._now

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def n_streams(self) -> int:
        return self._state.n_streams

    @property
    def stream_ids(self) -> list[int]:
        """All source identifiers, ascending (matches ``Channel.source_ids``)."""
        return list(range(self._state.n_streams))

    @property
    def state(self) -> StreamStateTable:
        """The *global* columnar table every shard view aliases into."""
        return self._state

    def rank_view(self, distance_array: Callable) -> ShardedRankView:
        """A merged rank order: per-shard views + k-way heap merge."""
        return ShardedRankView(
            [shard.state for shard in self.shards], distance_array
        )

    def initialize(self, time: float = 0.0) -> None:
        """Run the protocol's initialization phase at virtual *time*."""
        self._now = time
        self._guarded_call(self.protocol.initialize, self)

    # ------------------------------------------------------------------
    # Control-plane API used by protocols
    # ------------------------------------------------------------------
    def _shard_for(self, stream_id: int) -> ShardServer:
        return self.shards[int(self._shard_of[int(stream_id)])]

    def probe(self, stream_id: int) -> float:
        """Probe one source via its owning shard (2 messages)."""
        return self._shard_for(stream_id).probe(stream_id, self._now)

    def probe_all(
        self, stream_ids: list[int] | None = None
    ) -> dict[int, float]:
        """Probe several (default: all) sources; returns id -> value.

        Each consecutive same-shard run of ids is one columnar operation
        on its shard's channel when it qualifies (DESIGN.md §12), else
        the ordered :meth:`probe` loop.
        """
        targets = self.stream_ids if stream_ids is None else stream_ids
        ids = np.asarray(targets, dtype=np.int64)
        results: dict[int, float] = {}
        for index, a, b in owner_runs(self._shard_of, ids):
            shard = self.shards[index]
            results.update(
                probe_columns(
                    self, shard.channel, self._state, ids[a:b],
                    shard.state, shard.lo,
                )
            )
        return results

    def deploy(
        self,
        stream_id: int,
        lower: float,
        upper: float,
        assumed_inside: bool | None = None,
    ) -> None:
        """Install ``[lower, upper]`` at one source (one message)."""
        self._shard_for(stream_id).deploy(
            stream_id, lower, upper, assumed_inside, self._now
        )

    def deploy_many(
        self, stream_ids, lower, upper, assumed_inside=None
    ) -> None:
        """Install one constraint per stream id, in order (see
        :meth:`repro.server.server.Server.deploy_many`): each consecutive
        same-shard run of ids is one columnar operation on its shard's
        channel, or its ordered :meth:`deploy` loop."""
        columns = constraint_columns(stream_ids, lower, upper, assumed_inside)
        for index, a, b in owner_runs(self._shard_of, columns[0]):
            deploy_columns(
                self, self.shards[index].channel, self._state, self._busy,
                [column[a:b] for column in columns],
            )

    def broadcast(
        self,
        lower: float,
        upper: float,
        assumed_inside: dict[int, bool] | None = None,
    ) -> None:
        """Install ``[lower, upper]`` everywhere, ascending id order."""
        self.deploy_many(self.stream_ids, lower, upper, assumed_inside)

    # ------------------------------------------------------------------
    # Update delivery (single global FIFO)
    # ------------------------------------------------------------------
    def _receive_update(self, message: UpdateMessage) -> None:
        self._now = max(self._now, message.time)
        self._deliver(message)

    def _handle_delivery(self, message: UpdateMessage) -> None:
        # Value plane refreshed at *delivery* time through the owning
        # shard view (dirtying only that shard's rank listeners), then
        # the protocol sees the update exactly as on one server.
        shard = self._shard_for(message.stream_id)
        shard.state.record_report(
            message.stream_id - shard.lo, message.value, message.time
        )
        self.protocol.on_update(
            self, message.stream_id, message.value, message.time
        )


# ----------------------------------------------------------------------
# The spatial stack's sharded topology
# ----------------------------------------------------------------------
class SpatialShardServer:
    """One spatial shard's message endpoint: the vector-payload mirror
    of :class:`ShardServer`.

    Handles the probe round-trip and region-constraint transmission for
    its id range ``[lo, hi)``, recording points through the shard view
    (local rows — per-shard rank maintenance stays incremental) and
    forwarding update deliveries to the coordinator, which owns ordering
    and the protocol.
    """

    def __init__(
        self,
        coordinator: "ShardedSpatialServer",
        channel: Channel,
        state: StateShardView,
    ) -> None:
        self._coordinator = coordinator
        self.channel = channel
        self.state = state
        self.lo = state.lo
        self.hi = state.hi
        self._probe_reply: PointProbeReplyMessage | None = None
        self._awaiting_probe = False
        channel.bind_server(self._handle_message)

    def probe(self, stream_id: int, time: float) -> np.ndarray:
        """One probe round-trip to a source this shard owns."""
        self._awaiting_probe = True
        self._probe_reply = None
        self.channel.send_to_source(
            PointProbeRequestMessage(stream_id=stream_id, time=time)
        )
        self._awaiting_probe = False
        if self._probe_reply is None:  # pragma: no cover - defensive
            raise RuntimeError(f"source {stream_id} did not reply to probe")
        reply = self._probe_reply
        self.state.record_report(
            reply.stream_id - self.lo, reply.point, reply.time
        )
        return reply.point

    def deploy(
        self,
        stream_id: int,
        region,
        assumed_inside: bool | None,
        time: float,
    ) -> None:
        """Install *region* at a source this shard owns (one message)."""
        self.state.record_container_deploy(stream_id - self.lo, region)
        self.channel.send_to_source(
            RegionConstraintMessage(
                stream_id=stream_id,
                time=time,
                region=region,
                assumed_inside=assumed_inside,
            )
        )

    def _handle_message(self, message: Message) -> None:
        if message.kind is MessageKind.PROBE_REPLY:
            if not self._awaiting_probe:  # pragma: no cover - defensive
                raise RuntimeError("unsolicited probe reply")
            assert isinstance(message, PointProbeReplyMessage)
            self._probe_reply = message
            return
        if message.kind is MessageKind.UPDATE:
            assert isinstance(message, PointUpdateMessage)
            self._coordinator._receive_update(message)
            return
        raise RuntimeError(  # pragma: no cover - defensive
            f"spatial shard server received unexpected {message.kind}"
        )


class ShardedSpatialServer(DeferredDeliveryMixin):
    """Coordinator over N spatial shards; SpatialServer-compatible.

    The ledger-identity argument is the scalar :class:`ShardedServer`'s,
    unchanged: shard views alias one coordinator table (now including
    the point matrix, container column, and geometric bbox planes),
    ``rank_view`` serves the merged per-shard order, per-stream messages
    route through per-shard channels charging one ledger in ascending-id
    iteration order, and update delivery runs through one global
    coordinator FIFO.
    """

    def __init__(
        self,
        channels: Sequence[Channel],
        protocol,
        ranges: Sequence[tuple[int, int]],
    ) -> None:
        if len(channels) != len(ranges):
            raise ValueError("need exactly one channel per shard range")
        if not ranges:
            raise ValueError("need at least one shard")
        self.protocol = protocol
        self._now = 0.0
        n = ranges[-1][1]
        self._state = StreamStateTable(n)
        self.shards = [
            SpatialShardServer(
                self, channel, StateShardView(self._state, lo, hi)
            )
            for channel, (lo, hi) in zip(channels, ranges)
        ]
        validate_shard_alignment(
            self._state, [shard.state for shard in self.shards]
        )
        self._shard_of = np.empty(n, dtype=np.int64)
        for index, (lo, hi) in enumerate(ranges):
            self._shard_of[lo:hi] = index
        self._init_delivery()

    # ------------------------------------------------------------------
    # Lifecycle (SpatialServer-compatible surface)
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self._now

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def n_streams(self) -> int:
        return self._state.n_streams

    @property
    def stream_ids(self) -> list[int]:
        return list(range(self._state.n_streams))

    @property
    def state(self) -> StreamStateTable:
        """The *global* columnar table every shard view aliases into."""
        return self._state

    def rank_view(self, distance_array: Callable) -> ShardedRankView:
        """A merged rank order: per-shard views + k-way heap merge."""
        return ShardedRankView(
            [shard.state for shard in self.shards], distance_array
        )

    def initialize(self, time: float = 0.0) -> None:
        self._now = time
        self._guarded_call(self.protocol.initialize, self)

    # ------------------------------------------------------------------
    # Control-plane API used by spatial protocols
    # ------------------------------------------------------------------
    def _shard_for(self, stream_id: int) -> SpatialShardServer:
        return self.shards[int(self._shard_of[int(stream_id)])]

    def probe(self, stream_id: int) -> np.ndarray:
        """Probe one source via its owning shard (2 messages)."""
        return self._shard_for(stream_id).probe(stream_id, self._now)

    def probe_all(
        self, stream_ids: list[int] | None = None
    ) -> dict[int, np.ndarray]:
        targets = self.stream_ids if stream_ids is None else stream_ids
        return {stream_id: self.probe(stream_id) for stream_id in targets}

    def deploy(
        self,
        stream_id: int,
        region,
        assumed_inside: bool | None = None,
    ) -> None:
        """Install *region* at one source (one message)."""
        self._shard_for(stream_id).deploy(
            stream_id, region, assumed_inside, self._now
        )

    # ------------------------------------------------------------------
    # Update delivery (single global FIFO)
    # ------------------------------------------------------------------
    def _receive_update(self, message: PointUpdateMessage) -> None:
        self._now = max(self._now, message.time)
        self._deliver(message)

    def _handle_delivery(self, message: PointUpdateMessage) -> None:
        shard = self._shard_for(message.stream_id)
        shard.state.record_report(
            message.stream_id - shard.lo, message.point, message.time
        )
        self.protocol.on_update(
            self, message.stream_id, message.point, message.time
        )
