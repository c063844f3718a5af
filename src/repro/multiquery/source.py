"""Sources carrying one filter slot per standing query.

On the runtime kernel this stack is :class:`repro.runtime.membership.
SlottedMembership` with the coordinator as transport: a value change
produces at most one physical update — sent iff at least one
non-silenced slot's membership flips — tagged with the set of flipped
query ids so the coordinator can forward it precisely.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.runtime.membership import REPORT, SlottedMembership
from repro.runtime.source import FilteredSource
from repro.streams.filters import FilterConstraint

if TYPE_CHECKING:
    from repro.multiquery.coordinator import MultiQueryCoordinator


class MultiQuerySource(FilteredSource):
    """A stream source shared by several standing queries.

    Each query owns a *slot*: the constraint it deployed plus the
    membership the query's server-side protocol believes.  With no slots
    installed at all the source behaves like a bare stream and every
    query is notified.
    """

    def __init__(
        self,
        stream_id: int,
        initial_value: float,
        coordinator: "MultiQueryCoordinator",
    ) -> None:
        super().__init__(stream_id, initial_value, SlottedMembership())
        self.coordinator = coordinator

    def _coerce(self, payload) -> float:
        return float(payload)

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    def apply_value(self, value: float, time: float) -> None:
        """Install a new value; send one shared update if any slot flips."""
        self.apply(value, time)

    def _emit(self, time: float, tags) -> None:
        # REPORT means "no filters at all": notify every query (None).
        flipped = None if tags is REPORT else tags
        self.coordinator.receive_update(
            self.stream_id, self.value, time, flipped=flipped
        )

    # ------------------------------------------------------------------
    # Control plane (invoked by the coordinator)
    # ------------------------------------------------------------------
    def install(
        self,
        query_id: str,
        constraint: FilterConstraint,
        assumed_inside: bool | None,
        time: float,
    ) -> None:
        """Install *constraint* into this source's slot for *query_id*.

        Mirrors the single-query self-correction rule: a stale belief
        triggers one update (physically shared like any other).
        """
        if self.membership.install_slot(
            query_id, constraint, assumed_inside, self.value
        ):
            self._emit(time, [query_id])

    def probe(self, query_id: str) -> float:
        """Answer a probe for *query_id*; resync that query's slot."""
        self.membership.resync_slot(query_id, self.value)
        return self.value

    def slot(self, query_id: str) -> FilterConstraint | None:
        """The constraint currently installed for *query_id*."""
        return self.membership.slot(query_id)
