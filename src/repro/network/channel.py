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
§8).  Both disciplines share the binding/tap surface defined here, and
taps always observe a message at *delivery* time — for the synchronous
channel the two instants coincide.
"""

from __future__ import annotations

from typing import Callable

from repro.network.accounting import MessageLedger
from repro.network.messages import Message, MessageKind


class Channel:
    """Synchronous message channel with cost accounting.

    Parameters
    ----------
    ledger:
        Every message sent through the channel is charged to this ledger.
    """

    def __init__(self, ledger: MessageLedger) -> None:
        self.ledger = ledger
        self._server_handler: Callable[[Message], None] | None = None
        self._source_handlers: dict[int, Callable[[Message], None]] = {}
        #: ``(lo, hi, handler)``: one handler for every id in ``[lo, hi)``
        #: (a columnar population binds its whole shard in one entry).
        self._source_ranges: list[tuple[int, int, Callable]] = []
        self._taps: list[Callable[[Message], None]] = []

    def __getstate__(self) -> dict:
        """Pickle (or deepcopy) without source bindings and taps —
        wiring, not state: a source binds itself at construction, and
        the handlers would drag every source into a snapshot (DESIGN §11)."""
        state = dict(self.__dict__)
        state.update(_source_handlers={}, _source_ranges=[], _taps=[])
        return state

    def bind_server(self, handler: Callable[[Message], None]) -> None:
        """Register the server's message handler."""
        self._server_handler = handler

    def bind_source(self, stream_id: int, handler: Callable[[Message], None]) -> None:
        """Register the handler of source *stream_id*."""
        self._source_handlers[stream_id] = handler

    def bind_sources(
        self, lo: int, hi: int, handler: Callable[[Message], None]
    ) -> None:
        """Register one handler for every source id in ``[lo, hi)``: one
        range entry for a population, :meth:`bind_source` for a single
        id.  A per-id binding shadows a range it falls in."""
        if hi - lo == 1:
            self.bind_source(int(lo), handler)
        else:
            self._source_ranges.append((int(lo), int(hi), handler))

    def unbind(self) -> None:
        """Forget the server, every source and every tap — a finished
        run's teardown (the handlers hold objects that hold this
        channel)."""
        self._server_handler = None
        self._source_handlers = {}
        self._source_ranges = []
        self._taps = []

    def _source_handler(self, stream_id: int) -> Callable[[Message], None]:
        handler = self._source_handlers.get(stream_id)
        if handler is not None:
            return handler
        for lo, hi, handler in self._source_ranges:
            if lo <= stream_id < hi:
                return handler
        raise RuntimeError(f"no source {stream_id} bound to channel")

    def add_tap(self, tap: Callable[[Message], None]) -> None:
        """Observe every message without affecting delivery or accounting.

        Nothing in the runtime taps a channel (the populations' planes
        need no flushing, DESIGN.md §20): taps are how a test or a
        harness watches the traffic, and a tapped channel keeps the
        fully-columnar replay away (``columnar_table``'s ``"taps"``
        clause).  Taps fire at *delivery* time — identical to send time
        on this channel, later on a latency-modeled one.

        A tap that also has a ``bulk(stream_ids)`` method is told of a
        columnar server-to-source delivery (:meth:`charge_bulk`) in one
        call; a tap without one keeps every delivery on this channel
        per-message.
        """
        self._taps.append(tap)

    def remove_tap(self, tap: Callable[[Message], None]) -> None:
        """Detach a previously added tap.

        Idempotent: detaching a tap that is not (or no longer) attached
        is a no-op, so a mid-drain bailout can always clean up
        unconditionally.
        """
        try:
            self._taps.remove(tap)
        except ValueError:
            pass

    # ------------------------------------------------------------------
    # Sending (the delivery discipline; overridden by LatencyChannel)
    # ------------------------------------------------------------------
    def send_to_server(self, message: Message) -> None:
        """Deliver a source-to-server message (update or probe reply)."""
        if self._server_handler is None:
            raise RuntimeError("no server bound to channel")
        self.ledger.record(message)
        self._deliver_to_server(message)

    def send_to_source(self, message: Message) -> None:
        """Deliver a server-to-source message (probe request or constraint)."""
        handler = self._source_handler(message.stream_id)  # unbound: raises
        self.ledger.record(message)
        self._deliver_to_source(message, handler)

    # ------------------------------------------------------------------
    # Columnar delivery (the bulk control plane, DESIGN.md §12)
    # ------------------------------------------------------------------
    def bulk_target(self, stream_ids, probe: bool = False):
        """The object whose one range binding handles every id of the
        *stream_ids* column — or ``None`` when this batch must travel
        message by message (no single range covers it, a per-id binding
        shadows an id in its span, the handler is no bound method, or a
        tap has no ``bulk`` form).  *probe* marks a batch of probes.

        An unbound id raises the same ``RuntimeError`` as
        :meth:`send_to_source`, before anything is charged.
        """
        if not len(stream_ids):
            return None
        first, last = int(stream_ids.min()), int(stream_ids.max())
        for lo, hi, handler in self._source_ranges:
            if lo <= first and last < hi:
                break
        else:
            for stream_id in stream_ids.tolist():
                self._source_handler(stream_id)
            return None
        if any(
            first <= stream_id <= last and shadow != handler
            for stream_id, shadow in self._source_handlers.items()
        ):
            return None
        if not all(hasattr(tap, "bulk") for tap in self._taps):
            return None
        return getattr(handler, "__self__", None)

    def charge_bulk(self, stream_ids, *kinds: MessageKind) -> None:
        """Account for one message of each of *kinds* per stream id,
        delivered columnar rather than through :meth:`send_to_source`:
        one ledger charge per kind, one ``bulk`` call per tap."""
        for kind in kinds:
            self.ledger.record_kind(kind, len(stream_ids))
        for tap in self._taps:
            tap.bulk(stream_ids)

    # ------------------------------------------------------------------
    # Delivery (shared by every discipline; taps fire here)
    # ------------------------------------------------------------------
    def _deliver_to_server(self, message: Message) -> None:
        if self._taps:
            for tap in self._taps:
                tap(message)
        self._server_handler(message)

    def _deliver_to_source(self, message: Message, handler=None) -> None:
        if self._taps:
            for tap in self._taps:
                tap(message)
        (handler or self._source_handler(message.stream_id))(message)

    @property
    def source_ids(self) -> list[int]:
        """Identifiers of all bound sources, ascending (a fresh list:
        nothing on a hot path asks — :attr:`n_sources` counts)."""
        ids = list(self._source_handlers)
        for lo, hi, _ in self._source_ranges:
            ids.extend(range(lo, hi))
        return sorted(ids)

    @property
    def n_sources(self) -> int:
        """How many sources are bound (no id list is built)."""
        return len(self._source_handlers) + sum(
            hi - lo for lo, hi, _ in self._source_ranges
        )


#: The default delivery discipline under its explicit name: today's
#: synchronous zero-virtual-latency channel.  ``Channel`` remains the
#: historical alias used throughout the codebase.
SynchronousChannel = Channel
