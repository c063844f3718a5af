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
spatial server and the multi-query coordinator.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

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
from repro.state.table import StreamStateTable
from repro.streams.control import (
    constraint_columns,
    deploy_columns,
    probe_columns,
)

if TYPE_CHECKING:
    from repro.state.rank import RankView


class Server(DeferredDeliveryMixin):
    """Query-processing + constraint-assignment units of Figure 3."""

    def __init__(
        self,
        channel: Channel,
        protocol: FilterProtocol,
        state_factory=None,
    ) -> None:
        self.channel = channel
        self.protocol = protocol
        self._now = 0.0
        #: ``n_streams -> StreamStateTable`` constructor (e.g.
        #: :class:`~repro.state.table.StateTableFactory` for memmap
        #: planes); ``None`` builds a plain RAM table.
        self._state_factory = state_factory
        self._state: StreamStateTable | None = None
        self._probe_reply: ProbeReplyMessage | None = None
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

    @property
    def stream_ids(self) -> list[int]:
        """All source identifiers known to the channel."""
        return self.channel.source_ids

    @property
    def n_streams(self) -> int:
        return len(self.channel.source_ids)

    @property
    def state(self) -> StreamStateTable:
        """The columnar stream-state table (created on first access).

        The server is the table's value-plane writer: probe replies and
        update deliveries refresh the last-known value and report time,
        and :meth:`deploy` records the bounds of every installed
        constraint.  Protocols keep their answer / tracked / silencer
        state in the same table, so there is exactly one copy of the
        server-side picture of the stream population.
        """
        if self._state is None:
            factory = self._state_factory or StreamStateTable
            self._state = factory(len(self.channel.source_ids))
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
    def probe(self, stream_id: int) -> float:
        """Request and return the current value of one source.

        Costs one ``PROBE_REQUEST`` plus one ``PROBE_REPLY`` message; the
        reply also refreshes the source's report-state, so the server's
        knowledge of that stream is exact afterwards.
        """
        self._awaiting_probe = True
        self._probe_reply = None
        self.channel.send_to_source(
            ProbeRequestMessage(stream_id=stream_id, time=self._now)
        )
        self._awaiting_probe = False
        if self._probe_reply is None:  # pragma: no cover - defensive
            raise RuntimeError(f"source {stream_id} did not reply to probe")
        reply = self._probe_reply
        self.state.record_report(reply.stream_id, reply.value, reply.time)
        return reply.value

    def probe_all(self, stream_ids: list[int] | None = None) -> dict[int, float]:
        """Probe several (default: all) sources; returns id -> value.

        Costs ``2n`` messages however it travels: as one columnar
        operation when the batch qualifies (DESIGN.md §12), else as the
        ordered :meth:`probe` loop.
        """
        targets = self.channel.source_ids if stream_ids is None else stream_ids
        ids = np.asarray(targets, dtype=np.int64)
        return probe_columns(self, self.channel, self.state, ids, self.state)

    def deploy(
        self,
        stream_id: int,
        lower: float,
        upper: float,
        assumed_inside: bool | None = None,
    ) -> None:
        """Install ``[lower, upper]`` at one source (one message).

        ``assumed_inside=None`` asserts the server's knowledge of the
        source's value is fresh; otherwise the source self-corrects with
        an immediate update if the belief is stale.
        """
        self.state.record_deploy(stream_id, lower, upper)
        self.channel.send_to_source(
            ConstraintMessage(
                stream_id=stream_id,
                time=self._now,
                lower=lower,
                upper=upper,
                assumed_inside=assumed_inside,
            )
        )

    def deploy_many(
        self, stream_ids, lower, upper, assumed_inside=None
    ) -> None:
        """Install one constraint per stream id, in order (``n`` messages).

        *lower*/*upper* are scalars or per-stream columns;
        *assumed_inside* is ``None`` (fresh knowledge everywhere), a
        column of belief codes (:data:`~repro.runtime.membership.
        BELIEF_NONE` / ``BELIEF_OUTSIDE`` / ``BELIEF_INSIDE``) or
        :meth:`broadcast`'s id -> belief map.  The
        outcome is that of the ordered :meth:`deploy` loop; inside a
        protocol step — where self-corrections queue rather than
        re-enter — a qualifying batch is installed as one columnar
        operation (DESIGN.md §12).
        """
        columns = constraint_columns(stream_ids, lower, upper, assumed_inside)
        deploy_columns(self, self.channel, self.state, self._busy, columns)

    def broadcast(
        self,
        lower: float,
        upper: float,
        assumed_inside: dict[int, bool] | None = None,
    ) -> None:
        """Install ``[lower, upper]`` at every source (``n`` messages).

        *assumed_inside* maps stream id to the server's belief; ids absent
        from the map are deployed with fresh-knowledge semantics.
        """
        self.deploy_many(self.stream_ids, lower, upper, assumed_inside)

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def _handle_message(self, message: Message) -> None:
        if message.kind is MessageKind.PROBE_REPLY:
            if not self._awaiting_probe:  # pragma: no cover - defensive
                raise RuntimeError("unsolicited probe reply")
            assert isinstance(message, ProbeReplyMessage)
            self._probe_reply = message
            return
        if message.kind is MessageKind.UPDATE:
            assert isinstance(message, UpdateMessage)
            self._now = max(self._now, message.time)
            self._deliver(message)
            return
        raise RuntimeError(  # pragma: no cover - defensive
            f"server received unexpected {message.kind}"
        )

    def _handle_delivery(self, message: UpdateMessage) -> None:
        # Refresh the value plane at *delivery* time (not receive time):
        # a queued delivery must not let a later-arriving value be
        # visible to an earlier update's protocol handler.
        self.state.record_report(
            message.stream_id, message.value, message.time
        )
        self.protocol.on_update(
            self, message.stream_id, message.value, message.time
        )
