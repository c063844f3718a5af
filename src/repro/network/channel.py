"""The source ↔ server communication channel.

The paper's correctness requirement 2 assumes "stream values do not change
during resolution", i.e. constraint resolution is atomic with respect to
the data.  :class:`SynchronousChannel` — the default delivery discipline —
models exactly that: a message is recorded in the ledger and handed to the
recipient within the same simulation event.

Delivery is pluggable: :class:`~repro.network.latency.LatencyChannel`
subclasses the channel and defers data-plane messages (updates and
constraint deployments) through the simulation engine's event loop to
study how stale beliefs degrade the correctness requirement (DESIGN.md
§8).  Both disciplines share the binding surface defined here.
"""

from __future__ import annotations

from typing import Callable

from repro.network.accounting import MessageLedger
from repro.network.messages import Message, MessageKind
from repro.state.sharding import id_column


class Channel:
    """Synchronous message channel with cost accounting.

    Parameters
    ----------
    ledger:
        Every message sent through the channel is charged to this ledger.
    """

    #: Whether a constraint is delivered when it is sent: the columnar
    #: install applies a batch at once, a columnar send routes its rows.
    constraints_inline = True

    def __init__(self, ledger: MessageLedger) -> None:
        self.ledger = ledger
        self._server_handler: Callable[[Message], None] | None = None
        #: ``(lo, hi, handler)``: one handler for every id in ``[lo, hi)``,
        #: first match wins.  A columnar population binds its whole shard
        #: in one entry; an id bound on its own (:meth:`bind_source`) is a
        #: one-id entry in front, shadowing any range it falls in.
        self._source_ranges: list[tuple[int, int, Callable]] = []

    def __getstate__(self) -> dict:
        """Pickle (or deepcopy) without source bindings — wiring, not
        state: a source binds itself at construction, and the handlers
        would drag every source into a snapshot (DESIGN §11)."""
        state = dict(self.__dict__)
        state["_source_ranges"] = []
        return state

    def bind_server(self, handler: Callable[[Message], None]) -> None:
        """Register the server's message handler."""
        self._server_handler = handler

    def bind_source(self, stream_id: int, handler: Callable[[Message], None]) -> None:
        """Register the handler of source *stream_id* alone: it replaces
        an earlier binding of that id and shadows a range it falls in."""
        own = [(stream_id, stream_id + 1, handler)]
        self._source_ranges = own + [
            entry for entry in self._source_ranges if entry[:2] != own[0][:2]
        ]

    def bind_sources(
        self, lo: int, hi: int, handler: Callable[[Message], None]
    ) -> None:
        """Register one handler for every source id in ``[lo, hi)``: one
        range entry for a population, :meth:`bind_source` for a single
        id."""
        if hi - lo == 1:
            self.bind_source(int(lo), handler)
        else:
            self._source_ranges.append((int(lo), int(hi), handler))

    def unbind(self) -> None:
        """Forget the server and every source — a finished run's
        teardown (the handlers hold objects that hold this channel)."""
        self._server_handler = None
        self._source_ranges = []

    def _source_handler(self, stream_id: int) -> Callable[[Message], None]:
        for lo, hi, handler in self._source_ranges:
            if lo <= stream_id < hi:
                return handler
        raise RuntimeError(f"no source {stream_id} bound to channel")

    # ------------------------------------------------------------------
    # Sending (the delivery discipline; overridden by LatencyChannel)
    # ------------------------------------------------------------------
    def send_to_server(self, message: Message) -> None:
        """Deliver a source-to-server message (update or probe reply)."""
        if self._server_handler is None:
            raise RuntimeError("no server bound to channel")
        self.ledger.record(message)
        self._server_handler(message)

    def send_to_source(self, message: Message) -> None:
        """Deliver a server-to-source message (probe request or constraint)."""
        handler = self._source_handler(message.stream_id)  # unbound: raises
        self.ledger.record(message)
        handler(message)

    # ------------------------------------------------------------------
    # Columnar delivery (the bulk control plane, DESIGN.md §12)
    # ------------------------------------------------------------------
    def bulk_target(self, stream_ids):
        """The object whose one range binding handles every id of the
        *stream_ids* column (or ascending ``range``) — or ``None`` when
        this batch must travel message by message (no single range
        covers it, an id bound on its own shadows one in its span, or
        the handler is no bound method).

        An unbound id raises the same ``RuntimeError`` as
        :meth:`send_to_source`, before anything is charged.
        """
        if not len(stream_ids):
            return None
        if isinstance(stream_ids, range):  # a broadcast's ascending ids
            first, last = stream_ids[0], stream_ids[-1]
        else:
            first, last = int(stream_ids.min()), int(stream_ids.max())
        ranges = self._source_ranges
        for lo, hi, handler in ranges:
            if hi - lo > 1 and lo <= first and last < hi:
                break
        else:
            for stream_id in id_column(stream_ids).tolist():
                self._source_handler(stream_id)
            return None
        if any(
            hi - lo == 1 and first <= lo <= last and shadow != handler
            for lo, hi, shadow in ranges
        ):
            return None
        return getattr(handler, "__self__", None)

    def charge_bulk(self, stream_ids, *kinds: MessageKind) -> None:
        """Account for one message of each of *kinds* per stream id,
        delivered columnar rather than through :meth:`send_to_source`:
        one ledger charge per kind."""
        for kind in kinds:
            self.ledger.record_kind(kind, len(stream_ids))

    @property
    def source_ids(self) -> list[int]:
        """Identifiers of all bound sources, ascending (a fresh list:
        nothing on a hot path asks — :attr:`n_sources` counts)."""
        ids = []
        for lo, hi, _ in self._source_ranges:
            ids.extend(range(lo, hi))
        return sorted(ids)

    @property
    def n_sources(self) -> int:
        """How many sources are bound (no id list is built)."""
        return sum(hi - lo for lo, hi, _ in self._source_ranges)


#: The default delivery discipline under its explicit name: today's
#: synchronous zero-virtual-latency channel.  ``Channel`` remains the
#: historical alias used throughout the codebase.
SynchronousChannel = Channel
