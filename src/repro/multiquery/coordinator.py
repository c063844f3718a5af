"""The multi-query coordinator and the per-query server facade.

:class:`QueryContext` exposes the exact control-plane API of
:class:`repro.server.server.Server` (``probe``, ``probe_all``,
``deploy``, ``deploy_many``, ``broadcast``, ``state``, ``rank_view``,
``stream_ids``, ``n_streams``), so the single-query protocols
run against it *unmodified*; its probes and deployments go down the
session's channel tagged with its query id.  The
:class:`MultiQueryCoordinator` is the session's host for a
:class:`~repro.multiquery.group.QueryGroup`: it owns one context (and
state table) per query and the server end of the channel, which
charges every message, as on every other stack:

* a physical uplink update is charged **once** however many queries it
  serves;
* probes and constraint deployments are charged per query (they are
  genuinely per-query payloads, tagged with the query id);
* updates are forwarded only to the protocols whose slot flipped, so
  each protocol sees its solo message sequence and its correctness
  argument is untouched.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.multiquery.source import QueryConstraintMessage, QueryProbeMessage
from repro.network.channel import Channel
from repro.network.messages import Message, MessageKind
from repro.runtime.dispatch import DeferredDeliveryMixin
from repro.runtime.membership import BELIEF_NONE
from repro.state.sharding import id_column
from repro.state.table import StreamStateTable
from repro.streams.control import check_bounds, constraint_columns, deploy_each

if TYPE_CHECKING:
    from repro.multiquery.group import QueryGroup


class QueryContext:
    """A Server look-alike scoped to one standing query: its ``state``
    table, and probes and deployments tagged with its id."""

    def __init__(
        self,
        query_id: str,
        coordinator: "MultiQueryCoordinator",
        state: StreamStateTable,
    ) -> None:
        self.query_id = query_id
        self._coordinator = coordinator
        self.state = state

    def rank_view(self, distance_array):
        """An incremental rank order over :attr:`state` (see
        :meth:`repro.server.sharded.ShardedServer.rank_view`)."""
        from repro.state.rank import RankView

        return RankView(self.state, distance_array)

    @property
    def stream_ids(self) -> list[int]:
        return list(range(self.n_streams))

    @property
    def n_streams(self) -> int:
        return self.state.n_streams

    def probe(self, stream_id: int) -> float:
        """One probe round trip (2 messages); the reply is recorded in
        :attr:`state`."""
        coordinator = self._coordinator
        coordinator.channel.send_to_source(
            QueryProbeMessage(stream_id, coordinator.now, query=self.query_id)
        )
        reply, coordinator.probe_reply = coordinator.probe_reply, None
        self.state.record_report(stream_id, reply.value)
        return reply.value

    def probe_all(self, stream_ids=None) -> np.ndarray:
        """Probe several (default: all) sources: one columnar probe, its
        ``2n`` messages charged at once (DESIGN.md §12), when one
        population holds every id and no id repeats, else the ordered
        :meth:`probe` loop."""
        ids = np.arange(self.n_streams) if stream_ids is None else id_column(stream_ids)
        channel = self._coordinator.channel
        population = channel.bulk_target(ids)
        if population is None or len(np.unique(ids)) < len(ids):
            return np.array([self.probe(stream_id) for stream_id in ids.tolist()])
        channel.charge_bulk(ids, MessageKind.PROBE_REQUEST, MessageKind.PROBE_REPLY)
        values = population.resync(self.query_id, ids - population.first_id)
        self.state.record_report_rows(ids, values)
        return values

    def deploy(
        self,
        stream_id: int,
        lower: float,
        upper: float,
        assumed_inside: bool | None = None,
    ) -> None:
        """Install ``[lower, upper]`` in this query's slot (1 message)."""
        coordinator = self._coordinator
        coordinator.channel.send_to_source(
            QueryConstraintMessage(
                stream_id, coordinator.now, lower, upper, assumed_inside,
                query=self.query_id,
            )
        )

    def deploy_many(
        self, stream_ids, bound, assumed_inside=None, silenced=None
    ) -> None:
        """Server-compatible batch deploy with the ordered :meth:`deploy`
        loop's outcome: where the channel delivers constraints inline to
        one population holding every id, the ``n`` messages are charged
        at once and the rows installed in order (a self-correction still
        goes up as a message), else that loop."""
        if stream_ids is None:
            stream_ids = range(self.n_streams)
        ids, (lower, upper), belief = constraint_columns(
            stream_ids, bound, assumed_inside, silenced
        )
        coordinator = self._coordinator
        channel = coordinator.channel
        population = channel.bulk_target(ids) if channel.constraints_inline else None
        if population is None:
            deploy_each(self, ids, (lower, upper), belief)
            return
        check_bounds(lower, upper)  # before anything is charged
        channel.charge_bulk(ids, MessageKind.CONSTRAINT)
        first, now = population.first_id, coordinator.now
        for stream_id, low, high, code in zip(
            id_column(ids).tolist(), lower.tolist(), upper.tolist(), belief.tolist()
        ):
            population.install(
                stream_id - first, self.query_id, low, high,
                None if code == BELIEF_NONE else bool(code), now,
            )

    def broadcast(self, bound, assumed_inside=None) -> None:
        self.deploy_many(None, bound, assumed_inside)


class MultiQueryCoordinator(DeferredDeliveryMixin):
    """Hosts a :class:`~repro.multiquery.group.QueryGroup` — its
    ``protocol`` — at the server end of *channel*, the way a ``Server``
    hosts one protocol: ``initialize`` and every delivered update go to
    the group, which forwards them to its queries' protocols through
    ``contexts``, one :class:`QueryContext` per query id."""

    def __init__(self, channel: Channel, group: "QueryGroup") -> None:
        self.channel = channel
        self.protocol = group
        self.contexts = {
            query_id: QueryContext(
                query_id, self, StreamStateTable(channel.n_sources)
            )
            for query_id in group.queries
        }
        #: One columnar state table per standing query, in query order:
        #: the population's slot planes are views of their columns.
        self.state_tables = tuple(
            context.state for context in self.contexts.values()
        )
        self.now = 0.0
        #: The probe reply in hand (a probe's round trip is inline).
        self.probe_reply: Message | None = None
        self._init_delivery()
        channel.bind_server(self._handle_message)

    def initialize(self, time: float = 0.0) -> None:
        """Run the group's initialization phase at virtual *time*."""
        self.now = time
        self._guarded_call(self.protocol.initialize, self)

    def close(self) -> None:
        """Unwire a finished run (``ExecutionSession.close``): the query
        contexts hold the coordinator."""
        self.contexts.clear()

    def _handle_message(self, message: Message) -> None:
        if message.kind is MessageKind.PROBE_REPLY:
            self.probe_reply = message
            return
        self.now = max(self.now, message.time)
        self._deliver(message)

    def _handle_delivery(self, message: Message) -> None:
        self.protocol.on_update(
            self, message.stream_id, message.value, message.time, message.queries
        )
