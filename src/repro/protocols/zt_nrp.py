"""ZT-NRP: the zero-tolerance protocol for range queries (Section 5.1).

Every stream's filter *is* the query's bound — the range ``[l, u]``, or
the query box in d dimensions — so each filter evaluates the range
predicate locally and reports exactly the membership flips.  The answer is always exact, and — unlike the no-filter baseline —
value changes that do not cross the range boundary cost nothing.

Server-side state lives in the shared :class:`~repro.state.table.
StreamStateTable`: the answer is the table's membership mask, and the
deployed range is recorded in its constraint columns.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.protocols.base import FilterProtocol

if TYPE_CHECKING:
    from repro.server.server import Server
    from repro.state.table import StreamStateTable


class ZeroToleranceRangeProtocol(FilterProtocol):
    """Deploy the query's bound everywhere; track membership flips."""

    name = "ZT-NRP"
    # Maintenance is a pure per-stream membership flip: no probes, no
    # redeployments, no cross-stream state — shards replay independently.
    decomposable_maintenance = True
    # It never reacts at all: every report is quiet, so the inherited
    # ``absorb_reports`` takes whole chunks.  Both flags describe the
    # algorithm, on any host; whether a host can use them is the
    # consumer's check (DESIGN.md §9, §15).
    columnar_maintenance = True

    def __init__(self, query) -> None:
        self.query = query
        self._state: "StreamStateTable | None" = None

    def initialize(self, server: "Server") -> None:
        self._state = server.state
        self._state.answer_set_mask(self.query.matches_array(server.probe_all()))
        # Knowledge is fresh (we just probed), so no belief is attached.
        server.deploy_many(None, self.query.bound)

    def on_update(
        self, server: "Server", stream_id: int, value, time: float
    ) -> None:
        assert self._state is not None, "initialize() must run first"
        if self.query.matches(value):
            self._state.answer_add(stream_id)
        else:
            self._state.answer_discard(stream_id)
