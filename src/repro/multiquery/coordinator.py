"""The multi-query coordinator and the per-query server facade.

:class:`QueryContext` exposes the exact control-plane API of
:class:`repro.server.server.Server` (``probe``, ``probe_all``,
``deploy``, ``deploy_many``, ``broadcast``, ``stream_ids``,
``n_streams``, ``now``), so the single-query protocols run against it
*unmodified*.  The
:class:`MultiQueryCoordinator` owns the shared sources and the ledger:

* a physical uplink update is charged **once** however many queries it
  serves;
* probes and constraint deployments are charged per query (they are
  genuinely per-query payloads);
* updates are forwarded only to the protocols whose slot flipped, so
  each protocol sees its solo message sequence and its correctness
  argument is untouched.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.network.accounting import MessageLedger
from repro.network.messages import MessageKind
from repro.protocols.base import FilterProtocol
from repro.runtime.dispatch import DeferredDeliveryMixin
from repro.state.table import StreamStateTable
from repro.streams.control import constraint_columns, deploy_each

if TYPE_CHECKING:
    from repro.multiquery.source import SlotPopulation


class QueryContext:
    """A Server look-alike scoped to one standing query."""

    def __init__(self, query_id: str, coordinator: "MultiQueryCoordinator") -> None:
        self.query_id = query_id
        self._coordinator = coordinator

    @property
    def now(self) -> float:
        return self._coordinator.now

    @property
    def state(self) -> StreamStateTable:
        """This query's columnar state table (Server-compatible)."""
        return self._coordinator.state_for(self.query_id)

    def rank_view(self, distance_array):
        """An incremental rank order over :attr:`state` (see
        :meth:`repro.server.sharded.ShardedServer.rank_view`)."""
        from repro.state.rank import RankView

        return RankView(self.state, distance_array)

    @property
    def stream_ids(self) -> list[int]:
        return list(range(len(self._coordinator.sources)))

    @property
    def n_streams(self) -> int:
        return len(self._coordinator.sources)

    def probe(self, stream_id: int) -> float:
        return self._coordinator.probe(self.query_id, stream_id)

    def probe_all(self, stream_ids=None) -> np.ndarray:
        targets = self.stream_ids if stream_ids is None else stream_ids
        return np.array([self.probe(stream_id) for stream_id in targets])

    def deploy(
        self,
        stream_id: int,
        lower: float,
        upper: float,
        assumed_inside: bool | None = None,
    ) -> None:
        self._coordinator.deploy(
            self.query_id, stream_id, lower, upper, assumed_inside
        )

    def deploy_many(
        self, stream_ids, bound, assumed_inside=None, silenced=None
    ) -> None:
        """Server-compatible batch deploy; slotted sources have no
        columnar form, so this is the ordered :meth:`deploy` loop."""
        if stream_ids is None:
            stream_ids = self.stream_ids
        deploy_each(
            self,
            *constraint_columns(stream_ids, bound, assumed_inside, silenced),
        )

    def broadcast(self, bound, assumed_inside=None) -> None:
        self.deploy_many(None, bound, assumed_inside)


class MultiQueryCoordinator(DeferredDeliveryMixin):
    """Hosts several protocols over one shared source population."""

    def __init__(self, ledger: MessageLedger | None = None) -> None:
        self.ledger = ledger or MessageLedger()
        #: The shared population (empty until :meth:`attach_sources`).
        self.sources: "SlotPopulation | list" = []
        self._protocols: dict[str, FilterProtocol] = {}
        self._contexts: dict[str, QueryContext] = {}
        #: One columnar state table per standing query.  The dict object
        #: is shared live with the population (slot write-through) and
        #: with the replay pre-scan.
        self.state_tables: dict[str, StreamStateTable] = {}
        self.now = 0.0
        self._init_delivery()
        #: Physical uplink updates (each possibly serving several queries).
        self.shared_updates = 0
        #: Query deliveries those updates fanned out to.
        self.logical_deliveries = 0

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def attach_sources(self, initial_values) -> None:
        from repro.multiquery.source import SlotPopulation

        self.sources = SlotPopulation(initial_values, self, self.state_tables)

    def state_for(self, query_id: str) -> StreamStateTable:
        """The state table of one query (created on first access)."""
        table = self.state_tables.get(query_id)
        if table is None:
            table = StreamStateTable(len(self.sources))
            self.state_tables[query_id] = table
        return table

    def register(self, query_id: str, protocol: FilterProtocol) -> QueryContext:
        """Add a standing query; returns its server facade."""
        if query_id in self._protocols:
            raise ValueError(f"duplicate query id {query_id!r}")
        self._protocols[query_id] = protocol
        context = QueryContext(query_id, self)
        self._contexts[query_id] = context
        self.state_for(query_id)
        return context

    def initialize_all(self, time: float = 0.0) -> None:
        """Run every protocol's initialization phase."""
        self.now = time
        self._guarded_call(self._initialize_protocols)

    def _initialize_protocols(self) -> None:
        for query_id, protocol in self._protocols.items():
            protocol.initialize(self._contexts[query_id])

    # ------------------------------------------------------------------
    # Control plane (invoked via QueryContext)
    # ------------------------------------------------------------------
    def probe(self, query_id: str, stream_id: int) -> float:
        self.ledger.record_kind(MessageKind.PROBE_REQUEST)
        value = self.sources.probe(stream_id, query_id)
        self.ledger.record_kind(MessageKind.PROBE_REPLY)
        self.state_for(query_id).record_report(stream_id, value, self.now)
        return value

    def deploy(
        self,
        query_id: str,
        stream_id: int,
        lower: float,
        upper: float,
        assumed_inside: bool | None,
    ) -> None:
        from repro.streams.filters import FilterConstraint

        self.ledger.record_kind(MessageKind.CONSTRAINT)
        self.state_for(query_id).record_deploy(stream_id, lower, upper)
        self.sources.install(
            stream_id,
            query_id,
            FilterConstraint(lower, upper),
            assumed_inside,
            self.now,
        )

    # ------------------------------------------------------------------
    # Data plane (invoked by sources)
    # ------------------------------------------------------------------
    def receive_update(
        self,
        stream_id: int,
        value: float,
        time: float,
        flipped: list[str] | None,
    ) -> None:
        """One physical update; forward to the flipped queries only.

        ``flipped=None`` means the source carries no filters at all, so
        every query is notified (the no-filter baseline).
        """
        self.ledger.record_kind(MessageKind.UPDATE)
        self.shared_updates += 1
        self.now = max(self.now, time)
        self._deliver((stream_id, value, time, flipped))

    def _handle_delivery(
        self, item: tuple[int, float, float, list[str] | None]
    ) -> None:
        self._dispatch(*item)

    def _dispatch(
        self,
        stream_id: int,
        value: float,
        time: float,
        flipped: list[str] | None,
    ) -> None:
        targets = list(self._protocols) if flipped is None else flipped
        for query_id in targets:
            protocol = self._protocols.get(query_id)
            if protocol is None:  # pragma: no cover - defensive
                continue
            self.logical_deliveries += 1
            # Refresh exactly the forwarded queries' value planes: each
            # protocol's knowledge stays identical to its solo run.
            self.state_for(query_id).record_report(stream_id, value, time)
            protocol.on_update(
                self._contexts[query_id], stream_id, value, time
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def answer(self, query_id: str) -> frozenset[int]:
        return self._protocols[query_id].answer
