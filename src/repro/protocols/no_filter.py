"""The no-filter baseline.

With no filters installed, every value change travels to the server
(Section 3.1: "If no filter is installed at a stream, all updates from
the stream are reported").  The server therefore always knows every true
value and reports the exact answer; the cost is one maintenance message
per update, which is the reference line labelled "no filter" in Figure 9.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.protocols.base import FilterProtocol

if TYPE_CHECKING:
    from repro.server.server import Server
    from repro.state.table import StreamStateTable


class NoFilterProtocol(FilterProtocol):
    """Exact answering with zero filtering.

    The payload vector is the shared state table's payload column (the
    server refreshes it on every update, and with no filters every
    update arrives).  Range-query membership is maintained incrementally
    in the table's answer mask; rank-based answers are evaluated from
    the payload column only when :attr:`answer` is read (the checker or
    user asks; the hot update path stays O(1)).
    """

    name = "no-filter"

    def __init__(self, query) -> None:
        self.query = query
        self._state: "StreamStateTable | None" = None
        self._is_range = not query.is_rank_based
        # Range answering is a per-stream membership flip, so shards
        # replay independently; a rank-based answer reads the *global*
        # value order and must stay on one coordinator.
        self.decomposable_maintenance = self._is_range
        self._rank_cache: frozenset[int] | None = None

    def initialize(self, server: "Server") -> None:
        # No filters are deployed; the server still needs a first snapshot
        # of every value to answer before any update arrives.
        self._state = server.state
        server.probe_all()
        if self._is_range:
            self._state.answer_set_mask(
                self.query.matches_array(self._state.payload_array())
            )
        self._rank_cache = None

    def on_update(
        self, server: "Server", stream_id: int, value, time: float
    ) -> None:
        assert self._state is not None, "initialize() must run first"
        if self._is_range:
            if self.query.matches(value):
                self._state.answer_add(stream_id)
            else:
                self._state.answer_discard(stream_id)
        else:
            self._rank_cache = None

    @property
    def answer(self) -> frozenset[int]:
        if self._state is None:
            return frozenset()
        if self._is_range:
            return self._state.answer_snapshot()
        if self._rank_cache is None:
            self._rank_cache = self.query.true_answer(
                self._state.payload_array()
            )
        return self._rank_cache
