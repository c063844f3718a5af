"""Sources carrying one filter slot per standing query, as columns.

The shared population (DESIGN.md §20) holds one value plane and, per
standing query, one *slot plane*: the interval that query deployed at
each row, the side of it that query's protocol believes, and when the
row first took it.  A value change produces at most one physical update
— sent iff at least one non-silenced slot's membership flips — tagged
with the flipped query ids in the row's own first-install order, so the
coordinator can forward it precisely.  The coordinator is the
transport: it calls :meth:`SlotPopulation.install` / ``probe`` and
receives ``receive_update``.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from repro.runtime.membership import deployment_outcome
from repro.runtime.source import FilteredSource, Population, alias_planes
from repro.streams.filters import FilterConstraint

if TYPE_CHECKING:
    from repro.multiquery.coordinator import MultiQueryCoordinator


class MultiQuerySource(FilteredSource):
    """A stream source shared by several standing queries: a view of a
    :class:`SlotPopulation` row.

    Each query owns a *slot*: the constraint it deployed plus the
    membership the query's server-side protocol believes.  With no slots
    installed at all the source behaves like a bare stream and every
    query is notified.
    """

    __slots__ = ()

    def __init__(
        self,
        stream_id: int,
        initial_value: float,
        coordinator: "MultiQueryCoordinator",
    ) -> None:
        self._population = SlotPopulation([initial_value], coordinator, None, stream_id)
        self._row = 0

    def install(
        self,
        query_id: str,
        constraint: FilterConstraint,
        assumed_inside: bool | None,
        time: float,
    ) -> None:
        """Install *constraint* into this source's slot for *query_id*."""
        self._population.install(
            self._row, query_id, constraint, assumed_inside, time
        )

    def probe(self, query_id: str) -> float:
        """Answer a probe for *query_id*; resync that query's slot."""
        return self._population.probe(self._row, query_id)

    def slot(self, query_id: str) -> FilterConstraint | None:
        """The constraint currently installed for *query_id*."""
        slot = self._population.slots.get(query_id)
        if slot is None or slot.rank[self._row] < 0:
            return None
        return FilterConstraint(
            slot.lower.item(self._row), slot.upper.item(self._row)
        )


class SlotPlane:
    """One query's slot at every row: its bounds, the believed side,
    ``armed`` (installed and not silencing: able to flip) and ``rank``,
    the row's slot count when it first took this one (``-1``: never).

    With a *table* (the query's state table), the bounds and the
    believed side are views of its ``lower`` / ``upper`` / ``inside``
    columns from row *first_id* on (DESIGN.md §21)."""

    __slots__ = ("lower", "upper", "inside", "armed", "rank", "table")

    def __init__(self, n: int, table, first_id: int) -> None:
        self.lower = np.full(n, -math.inf)
        self.upper = np.full(n, math.inf)
        self.inside = np.zeros(n, dtype=bool)
        self.armed = np.zeros(n, dtype=bool)
        self.rank = np.full(n, -1, dtype=np.int64)
        self.table = table
        if table is not None:
            alias_planes(
                self, table, first_id, lower="lower", upper="upper", inside="inside"
            )


class SlotPopulation(Population):
    """The multi-query stack's sources: a value plane, one
    :class:`SlotPlane` per query id (``slots``, in first-install order)
    and ``n_slots``, how many slots each row holds.

    *tables* — the coordinator's live ``query id -> state table`` dict,
    or ``None`` — holds the slots' planes: a slot whose query has a
    table there when the slot is created keeps its bounds and believed
    side in that table's columns; other slots (ad-hoc ones in unit
    tests) keep their own.
    """

    view = MultiQuerySource

    def __init__(
        self,
        initial_values,
        coordinator: "MultiQueryCoordinator",
        tables: dict | None = None,
        first_id: int = 0,
    ) -> None:
        values = np.array(initial_values, dtype=np.float64, ndmin=1)
        first_id = int(first_id)
        super().__init__(values, (), [(first_id, first_id + len(values))])
        self.coordinator = coordinator
        self.tables = tables
        self.slots: dict[str, SlotPlane] = {}
        self.n_slots = np.zeros(len(values), dtype=np.int64)

    @staticmethod
    def _note_slot(slot: SlotPlane) -> None:
        """:meth:`Population._note` for a slot's table."""
        if slot.table is not None:
            slot.table._note_constraint()

    def _report(self, row: int, value: float, time: float, flipped) -> None:
        self.coordinator.receive_update(
            self.first_id + row, value, time, flipped=flipped
        )

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    def apply(self, row: int, payload, time: float) -> None:
        """Install a new value; send one shared update if any slot flips
        (with no slot at all, one that every query receives)."""
        value = float(payload)
        self.values[row] = value
        if not self.n_slots.item(row):
            self._report(row, value, time, None)
            return
        flipped = []
        for query_id, slot in self.slots.items():
            if not slot.armed.item(row):
                continue
            inside = slot.lower.item(row) <= value <= slot.upper.item(row)
            if inside != slot.inside.item(row):
                slot.inside[row] = inside
                self._note_slot(slot)
                flipped.append((slot.rank.item(row), query_id))
        if flipped:
            flipped.sort()
            self._report(row, value, time, [query_id for _, query_id in flipped])

    # ------------------------------------------------------------------
    # Control plane (invoked by the coordinator)
    # ------------------------------------------------------------------
    def install(
        self,
        row: int,
        query_id: str,
        constraint: FilterConstraint,
        assumed_inside: bool | None,
        time: float,
    ) -> None:
        """Deploy *constraint* into *row*'s slot for *query_id*; a stale
        belief triggers one update tagged *query_id* (physically shared
        like any other)."""
        slot = self.slots.get(query_id)
        if slot is None:
            table = None if self.tables is None else self.tables.get(query_id)
            slot = SlotPlane(len(self), table, self.first_id)
            self.slots[query_id] = slot
        if slot.rank.item(row) < 0:
            slot.rank[row] = self.n_slots[row]
            self.n_slots[row] += 1
        value = self.values.item(row)
        inside, must_report = deployment_outcome(constraint, assumed_inside, value)
        slot.lower[row] = constraint.lower
        slot.upper[row] = constraint.upper
        slot.armed[row] = not constraint.is_silencing
        slot.inside[row] = inside
        if slot.table is not None:
            slot.table.scannable[self.first_id + row] = True
        self._note_slot(slot)
        if must_report:
            self._report(row, value, time, [query_id])

    def probe(self, row: int, query_id: str) -> float:
        """Answer a probe for *query_id*: resync that query's slot only."""
        value = self.values.item(row)
        slot = self.slots.get(query_id)
        if slot is not None and slot.rank.item(row) >= 0:
            slot.inside[row] = slot.lower.item(row) <= value <= slot.upper.item(row)
            self._note_slot(slot)
        return value
