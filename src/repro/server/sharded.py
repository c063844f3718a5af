"""The sharded topology: per-shard servers behind one coordinator.

A :class:`ShardedServer` hosts one protocol over a population
partitioned into contiguous shards and is the only implementation of
the control plane (``probe``, ``probe_all``, ``deploy``,
``deploy_many``, ``broadcast``, ``state``, ``rank_view``,
``stream_ids``, ``n_streams``, ``now``); each per-stream operation is
routed to the :class:`ShardServer` owning that stream.  The single
topology's :class:`repro.server.server.Server` is this class with one
shard covering ``[0, n)``.

Why the message ledger does not depend on the shard count:

* **Storage.**  Every shard's :class:`~repro.state.sharding.
  StateShardView` aliases a slice of the coordinator's global
  :class:`~repro.state.table.StreamStateTable`, so the protocol reads
  exactly the values/bounds/masks it would read on one shard.
* **Rank order.**  ``rank_view`` returns a :class:`~repro.state.
  sharding.ShardedRankView` — per-shard incremental maintenance plus a
  k-way ``(key, id)`` heap merge — proven order-identical to the
  unsharded ``RankView`` (tests/state/test_sharding.py); one shard
  needs no merge and gets that ``RankView`` over its view.
* **Message multiset.**  Probes, deployments and updates are per-stream
  messages; routing them through per-shard channels that share one
  :class:`~repro.network.accounting.MessageLedger` charges the same
  kinds in the same phases.  ``broadcast``/``probe_all`` iterate global
  ids ascending whatever the shard count; a batch
  (``deploy_many``, ``probe_all``) is cut into consecutive same-shard
  runs handled in order, each columnar on its shard's channel when it
  qualifies (DESIGN.md §12).
* **Delivery order.**  The deferred-delivery re-entrancy discipline
  lives at the *coordinator*: a stale-belief self-correction arriving at
  any shard while the protocol is mid-step is queued in one global FIFO
  and drained after the step, exactly as with one shard.  (Had
  each shard queued independently, an update on shard B could re-enter
  the protocol while shard A's delivery is still on the stack.)

The coordinator accepts a latency-modeled bus: the per-shard channels
may be :class:`~repro.network.latency.LatencyChannel`s (compiled by the
session builders from ``Deployment(latency=...)``), in which case update
deliveries reach :meth:`ShardedServer._receive_update` at *delivery*
time while probe round-trips stay synchronous (DESIGN.md §8).  The
global delivery FIFO needs no change — a late-arriving self-correction
is just one more deferred delivery — and with ``latency=0`` delivery is
inline, so the byte-identity argument above is untouched.

Payloads are the coordinator's :class:`~repro.runtime.vocabulary.
Vocabulary` (DESIGN.md §13): scalar by default, spatial through the
:class:`ShardedSpatialServer` binding — shard views alias the point
matrix, container column and geometric bbox planes too (all lazily
allocated on the parent), so spatial protocols and the batched AABB
quiescence pre-scan read the same memory whatever the shard count.  The
process-parallel sibling of this coordinator is
:class:`repro.server.transport.TransportShardedServer`
(``Deployment.sharded(n, parallel=True)``, DESIGN.md §10).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Sequence

import numpy as np

from repro.network.channel import Channel
from repro.network.messages import Message, MessageKind
from repro.protocols.base import FilterProtocol
from repro.runtime.dispatch import DeferredDeliveryMixin
from repro.runtime.vocabulary import VocabularyBound, vocabulary_of
from repro.state.rank import RankView
from repro.state.sharding import (
    ShardedRankView,
    StateShardView,
    owner_runs,
    validate_shard_alignment,
)
from repro.state.table import StreamStateTable
from repro.streams.control import deploy_columns, deploy_each, probe_columns
from repro.streams.vocabulary import SCALAR


class ShardServer:
    """One shard's message endpoint: a channel plus a state-shard view.

    Handles the mechanical half of the server role for its id range
    ``[lo, hi)`` — the probe round-trip, recording into the shard table
    (local rows, which keeps per-shard rank views incremental) — and
    forwards protocol-facing update deliveries to the coordinator, which
    owns ordering and the protocol.
    """

    def __init__(
        self,
        coordinator: "ShardedServer",
        channel: Channel,
        state: StateShardView,
    ) -> None:
        self._coordinator = coordinator
        self.vocabulary = coordinator.vocabulary
        self.channel = channel
        self.state = state
        self.lo = state.lo
        self.hi = state.hi
        self._probe_reply: Message | None = None
        self._awaiting_probe = False
        channel.bind_server(self._handle_message)

    def probe(self, stream_id: int, time: float):
        """One probe round-trip to a source this shard owns."""
        self._awaiting_probe = True
        self._probe_reply = None
        self.channel.send_to_source(
            self.vocabulary.probe_request(stream_id, time)
        )
        self._awaiting_probe = False
        if self._probe_reply is None:  # pragma: no cover - defensive
            raise RuntimeError(f"source {stream_id} did not reply to probe")
        reply = self._probe_reply
        payload = self.vocabulary.payload_of(reply)
        self.state.record_report(reply.stream_id - self.lo, payload, reply.time)
        return payload

    def _handle_message(self, message: Message) -> None:
        if message.kind is MessageKind.PROBE_REPLY:
            if not self._awaiting_probe:  # pragma: no cover - defensive
                raise RuntimeError("unsolicited probe reply")
            assert isinstance(message, self.vocabulary.probe_reply)
            self._probe_reply = message
            return
        if message.kind is MessageKind.UPDATE:
            assert isinstance(message, self.vocabulary.update)
            self._coordinator._receive_update(message)
            return
        raise RuntimeError(  # pragma: no cover - defensive
            f"shard server received unexpected {message.kind}"
        )


class ShardedServer(VocabularyBound, DeferredDeliveryMixin):
    """Coordinator over N shard servers: the control plane of Figure 3.

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

    stack = SCALAR.stack

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
        self.vocabulary = vocabulary_of(self.stack)
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
        #: The shards' ``hi`` ids, ascending: stream ``i`` is owned by
        #: ``shards[bisect_right(_bounds, i)]``.
        self._bounds = [hi for _, hi in ranges]
        self._init_delivery()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Virtual time of the most recent activity."""
        return self._now

    @now.setter
    def now(self, time: float) -> None:
        self._now = time

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

    def rank_view(self, distance_array: Callable) -> RankView | ShardedRankView:
        """An incremental rank order over :attr:`state`: the shard's own
        view on one shard, else per-shard views + k-way heap merge (one
        read API, one order; protocols must obtain rank views here)."""
        if len(self.shards) == 1:
            return RankView(self.shards[0].state, distance_array)
        return ShardedRankView(
            [shard.state for shard in self.shards], distance_array
        )

    def initialize(self, time: float = 0.0) -> None:
        """Run the protocol's initialization phase at virtual *time*."""
        self._now = time
        self._guarded_call(self.protocol.initialize, self)

    def close(self) -> None:
        """Unwire a finished run (``ExecutionSession.close``): the
        shards forget the coordinator and their views' rank listeners."""
        for shard in self.shards:
            shard._coordinator = None
            shard.state._listeners.clear()

    # ------------------------------------------------------------------
    # Control-plane API used by protocols
    # ------------------------------------------------------------------
    def probe(self, stream_id: int):
        """Probe one source via its owning shard (2 messages)."""
        shard = self.shards[bisect_right(self._bounds, stream_id)]
        return shard.probe(stream_id, self._now)

    def probe_all(self, stream_ids=None) -> np.ndarray:
        """Probe several (default: all) sources; returns their payloads
        aligned with the ids.

        Each consecutive same-shard run of ids is one columnar operation
        on its shard's channel when it qualifies (DESIGN.md §12), else
        the ordered :meth:`probe` loop.
        """
        targets = np.arange(self.n_streams) if stream_ids is None else stream_ids
        ids = np.asarray(targets, dtype=np.int64)
        runs = []
        for index, a, b in owner_runs(self._bounds, ids):
            shard = self.shards[index]
            runs.append(
                probe_columns(
                    self, shard.channel, self._state, ids[a:b],
                    shard.state, shard.lo,
                )
            )
        return np.concatenate(runs) if runs else np.empty(0)

    def deploy(self, stream_id: int, *constraint, **belief) -> None:
        """Install *constraint* — ``lower, upper`` or one region, then
        the optional ``assumed_inside`` belief — at one source (one
        message)."""
        self.shards[bisect_right(self._bounds, stream_id)].channel.send_to_source(
            self.vocabulary.constraint(stream_id, self._now, *constraint, **belief)
        )

    def deploy_many(
        self, stream_ids, bound, assumed_inside=None, silenced=None
    ) -> None:
        """Install *bound* — a bound value of this host's vocabulary —
        at each stream id (default: all, ascending), or the *silenced*
        pools' silencers at their members, with the *assumed_inside*
        belief codes (``None``: fresh knowledge); ``n`` messages.  The
        outcome is the ordered :meth:`deploy` loop's (DESIGN.md §15);
        each consecutive same-shard run of ids is one columnar operation
        on its shard's channel when it qualifies (DESIGN.md §12); one
        row is the one message it is, sent by :meth:`deploy`."""
        if stream_ids is None:
            stream_ids = np.arange(self.n_streams)
        ids, constraint, belief = self.vocabulary.constraint_columns(
            stream_ids, bound, assumed_inside, silenced
        )
        if len(ids) == 1:
            deploy_each(self, ids, constraint, belief)
            return
        for index, a, b in owner_runs(self._bounds, ids):
            run = (ids[a:b], [c[a:b] for c in constraint], belief[a:b])
            deploy_columns(
                self, self.shards[index].channel, self._state, self._busy, run
            )

    def broadcast(self, bound, assumed_inside=None) -> None:
        """Install *bound* everywhere, ascending id order."""
        self.deploy_many(None, bound, assumed_inside)

    # ------------------------------------------------------------------
    # Update delivery (single global FIFO)
    # ------------------------------------------------------------------
    def _receive_update(self, message: Message) -> None:
        self._now = max(self._now, message.time)
        self._deliver(message)

    def _handle_delivery(self, message: Message) -> None:
        # Value plane refreshed at *delivery* time through the owning
        # shard view (dirtying only that shard's rank listeners), then
        # the protocol sees the update exactly as on one shard.
        shard = self.shards[bisect_right(self._bounds, message.stream_id)]
        payload = self.vocabulary.payload_of(message)
        shard.state.record_report(
            message.stream_id - shard.lo, payload, message.time
        )
        self.protocol.on_update(
            self, message.stream_id, payload, message.time
        )


class ShardedSpatialServer(ShardedServer):
    """:class:`ShardedServer` bound to the spatial vocabulary (DESIGN.md
    §13): shard views alias the coordinator table's point matrix,
    container column and geometric bbox planes exactly as they alias the
    scalar columns, so the four invariants above hold unchanged."""

    stack = "spatial"
