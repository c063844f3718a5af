"""The central server: message dispatch plus the control-plane API.

Protocols never talk to the channel directly; they receive
``on_update(server, ...)`` callbacks and use the server's control-plane
methods (:meth:`Server.probe`, :meth:`Server.probe_all`,
:meth:`Server.deploy`, :meth:`Server.deploy_many`,
:meth:`Server.broadcast`), which keeps message accounting in one place.
Whole-population batches travel through the columnar kernels of
:mod:`repro.streams.control` when they qualify, and message by message
otherwise — with one outcome (DESIGN.md §12).

Re-entrancy: deploying a constraint whose ``assumed_inside`` belief turns
out stale makes the source report *immediately*, i.e. while the protocol
is still inside a maintenance step.  Such updates are queued and drained
after the protocol finishes the current step, so a protocol's handler is
never re-entered.  The queueing discipline is the runtime kernel's
:class:`repro.runtime.dispatch.DeferredDeliveryMixin`, shared with the
sharded coordinators and the multi-query coordinator.

What a stream value *is* — the message classes, the payload they carry,
the table's deploy recorder, whether constraints are interval columns —
is read from the server's :class:`~repro.runtime.vocabulary.Vocabulary`
(DESIGN.md §13); :class:`repro.spatial.server.SpatialServer` is this
class bound to the spatial one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.network.channel import Channel
from repro.network.messages import Message, MessageKind
from repro.protocols.base import FilterProtocol
from repro.runtime.dispatch import DeferredDeliveryMixin
from repro.runtime.vocabulary import VocabularyBound, vocabulary_of
from repro.state.table import StreamStateTable
from repro.streams.control import deploy_columns, probe_columns
from repro.streams.vocabulary import SCALAR

if TYPE_CHECKING:
    from repro.state.rank import RankView


class Server(VocabularyBound, DeferredDeliveryMixin):
    """Query-processing + constraint-assignment units of Figure 3."""

    stack = SCALAR.stack

    def __init__(
        self,
        channel: Channel,
        protocol: FilterProtocol,
        state_factory=None,
    ) -> None:
        self.vocabulary = vocabulary_of(self.stack)
        self.channel = channel
        self.protocol = protocol
        self._now = 0.0
        #: ``n_streams -> StreamStateTable`` constructor (e.g.
        #: :class:`~repro.state.table.StateTableFactory` for memmap
        #: planes); ``None`` builds a plain RAM table.
        self._state_factory = state_factory
        self._state: StreamStateTable | None = None
        self._probe_reply: Message | None = None
        self._awaiting_probe = False
        self._init_delivery()
        channel.bind_server(self._handle_message)

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
    def stream_ids(self) -> list[int]:
        """All source identifiers known to the channel."""
        return self.channel.source_ids

    @property
    def n_streams(self) -> int:
        return self.channel.n_sources

    @property
    def state(self) -> StreamStateTable:
        """The columnar stream-state table (created on first access).

        The server is the table's value-plane writer: probe replies and
        update deliveries refresh the last-known payload (value column
        or point matrix) and report time, and :meth:`deploy` records
        every installed constraint (scalar bounds, or the region in the
        container column — its quiescence boxes reach the geometric
        plane through the sources' membership write-through).  Protocols
        keep their answer / tracked / silencer state in the same table,
        so there is exactly one copy of the server-side picture of the
        stream population.
        """
        if self._state is None:
            factory = self._state_factory or StreamStateTable
            self._state = factory(self.channel.n_sources)
        return self._state

    def rank_view(self, distance_array) -> "RankView":
        """An incremental rank order over :attr:`state`.

        Protocols must obtain their rank views here rather than
        constructing :class:`~repro.state.rank.RankView` directly: the
        hosting topology decides the implementation (a sharded
        coordinator returns a k-way-merged per-shard view with the same
        read API and the identical order).
        """
        from repro.state.rank import RankView

        return RankView(self.state, distance_array)

    def initialize(self, time: float = 0.0) -> None:
        """Run the protocol's initialization phase at virtual *time*."""
        self._now = time
        self._guarded_call(self.protocol.initialize, self)

    # ------------------------------------------------------------------
    # Control-plane API used by protocols
    # ------------------------------------------------------------------
    def probe(self, stream_id: int):
        """Request and return the current payload of one source.

        Costs one ``PROBE_REQUEST`` plus one ``PROBE_REPLY`` message; the
        reply also refreshes the source's report-state, so the server's
        knowledge of that stream is exact afterwards.
        """
        self._awaiting_probe = True
        self._probe_reply = None
        self.channel.send_to_source(
            self.vocabulary.probe_request(stream_id, self._now)
        )
        self._awaiting_probe = False
        if self._probe_reply is None:  # pragma: no cover - defensive
            raise RuntimeError(f"source {stream_id} did not reply to probe")
        reply = self._probe_reply
        payload = self.vocabulary.payload_of(reply)
        self.state.record_report(reply.stream_id, payload, reply.time)
        return payload

    def probe_all(self, stream_ids=None) -> np.ndarray:
        """Probe several (default: all) sources; returns their payloads
        aligned with the ids (a column, or an ``(n, d)`` point matrix).

        Costs ``2n`` messages however it travels: as one columnar
        operation when the batch qualifies (DESIGN.md §12), else as the
        ordered :meth:`probe` loop.
        """
        targets = np.arange(self.n_streams) if stream_ids is None else stream_ids
        ids = np.asarray(targets, dtype=np.int64)
        return probe_columns(self, self.channel, self.state, ids, self.state)

    def deploy(self, stream_id: int, *constraint, **belief) -> None:
        """Install *constraint* — ``lower, upper`` or one region — at one
        source (one message).

        The belief ``assumed_inside`` follows the constraint, by
        position or by name: ``None`` (the default) asserts the server's
        knowledge of the source's value is fresh; otherwise the source
        self-corrects with an immediate update if the belief is stale.
        """
        message = self.vocabulary.constraint(
            stream_id, self._now, *constraint, **belief
        )
        self.vocabulary.record_deploy(self.state, stream_id, message)
        self.channel.send_to_source(message)

    def deploy_many(
        self, stream_ids, bound, assumed_inside=None, silenced=None
    ) -> None:
        """Install *bound* at each stream id, in order (``n`` messages);
        ``stream_ids=None`` names the whole population, ascending.

        *bound* is a bound value of this server's vocabulary (a
        :class:`~repro.streams.filters.FilterConstraint` or a region);
        members of the *silenced* :class:`~repro.state.pools.
        SilencerPools` get their pool's silencer instead.
        *assumed_inside* is ``None`` (fresh knowledge everywhere) or a
        column of belief codes (:data:`~repro.runtime.membership.
        BELIEF_NONE` / ``BELIEF_OUTSIDE`` / ``BELIEF_INSIDE``).  The
        outcome is that of the ordered :meth:`deploy` loop over the rows
        the vocabulary lowers the call to (DESIGN.md §15); inside a
        protocol step — where self-corrections queue rather than
        re-enter — a qualifying batch is installed as one columnar
        operation (DESIGN.md §12).
        """
        if stream_ids is None:
            stream_ids = np.arange(self.n_streams)
        columns = self.vocabulary.constraint_columns(
            stream_ids, bound, assumed_inside, silenced
        )
        deploy_columns(self, self.channel, self.state, self._busy, columns)

    def broadcast(self, bound, assumed_inside=None) -> None:
        """Install *bound* at every source (``n`` messages)."""
        self.deploy_many(None, bound, assumed_inside)

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def _handle_message(self, message: Message) -> None:
        if message.kind is MessageKind.PROBE_REPLY:
            if not self._awaiting_probe:  # pragma: no cover - defensive
                raise RuntimeError("unsolicited probe reply")
            assert isinstance(message, self.vocabulary.probe_reply)
            self._probe_reply = message
            return
        if message.kind is MessageKind.UPDATE:
            assert isinstance(message, self.vocabulary.update)
            self._now = max(self._now, message.time)
            self._deliver(message)
            return
        raise RuntimeError(  # pragma: no cover - defensive
            f"server received unexpected {message.kind}"
        )

    def _handle_delivery(self, message: Message) -> None:
        # Refresh the value plane at *delivery* time (not receive time):
        # a queued delivery must not let a later-arriving value be
        # visible to an earlier update's protocol handler.
        payload = self.vocabulary.payload_of(message)
        self.state.record_report(message.stream_id, payload, message.time)
        self.protocol.on_update(
            self, message.stream_id, payload, message.time
        )
