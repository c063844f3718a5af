"""Sources carrying one filter slot per standing query, as columns.

The shared population (DESIGN.md §20) holds one value plane and, per
standing query, one *slot plane*: the interval that query deployed at
each row, the side of it that query's protocol believes, and when the
row first took it.  A value change produces at most one physical update
— sent iff at least one non-silenced slot's membership flips — tagged
with the flipped query ids in the row's own first-install order, so the
coordinator can forward it precisely.  Like every population it speaks
through its channel: the update goes up as a :class:`SharedUpdateMessage`,
and a :class:`QueryProbeMessage` or :class:`QueryConstraintMessage` tagged
with its query comes down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

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
from repro.runtime.source import ChannelFilteredSource, Population, alias_planes
from repro.streams.filters import FilterConstraint


@dataclass(frozen=True)
class SharedUpdateMessage(UpdateMessage):
    """One physical update and the queries whose slots it flipped, in
    the row's first-install order (``None``: the row has no slot, so
    every query hears it)."""

    queries: tuple[str, ...] | None = None


@dataclass(frozen=True)
class QueryProbeMessage(ProbeRequestMessage):
    """A probe on behalf of one query: it resyncs that query's slot."""

    query: str = ""


@dataclass(frozen=True)
class QueryConstraintMessage(ConstraintMessage):
    """A constraint for one query's slot."""

    query: str = ""


class SlotPlane:
    """One query's slot at every row: its bounds, the believed side,
    ``armed`` (installed and not silencing: able to flip) and ``rank``,
    the row's slot count when it first took this one (``-1``: never).
    Once bound, the bounds and the believed side are views of the
    query's state table (``table``) columns (DESIGN.md §21)."""

    __slots__ = ("lower", "upper", "inside", "armed", "rank", "table")

    def __init__(self, n: int) -> None:
        self.lower = np.full(n, -math.inf)
        self.upper = np.full(n, math.inf)
        self.inside = np.zeros(n, dtype=bool)
        self.armed = np.zeros(n, dtype=bool)
        self.rank = np.full(n, -1, dtype=np.int64)
        self.table = None


class SlotPopulation(Population):
    """The multi-query stack's sources: a value plane, one
    :class:`SlotPlane` per query id of *queries* (``slots``) and
    ``n_slots``, how many slots each row holds.

    :meth:`bind_state` takes the queries' state tables in the same
    order; a slot whose query has none keeps its own planes."""

    #: A slotted row has nothing of its own to show: the plain view.
    view = ChannelFilteredSource

    def __init__(
        self,
        initial_values,
        channels: Sequence[Channel],
        ranges: Sequence[tuple[int, int]],
        queries: Sequence[str],
    ) -> None:
        values = np.array(initial_values, dtype=np.float64, ndmin=1)
        super().__init__(values, channels, ranges)
        self.slots = {query_id: SlotPlane(len(values)) for query_id in queries}
        self.n_slots = np.zeros(len(values), dtype=np.int64)

    def bind_state(self, *tables) -> None:
        """Make each query's slot planes views of its table's ``lower``
        / ``upper`` / ``inside`` columns, tables in query order."""
        for slot, table in zip(self.slots.values(), tables):
            slot.table = table
            alias_planes(
                slot, table, self.first_id, lower="lower", upper="upper", inside="inside"
            )

    def _note_slot(self, slot: SlotPlane, rows) -> None:
        """:meth:`Population._note` for a slot's table: *rows*, a row or
        a column of them, were written."""
        if slot.table is not None:
            slot.table._note_constraint(self.first_id + rows)

    def _report(self, row: int, value: float, time: float, queries) -> None:
        self._send(
            row, SharedUpdateMessage(self.first_id + row, time, value, queries)
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
                self._note_slot(slot, row)
                flipped.append((slot.rank.item(row), query_id))
        if flipped:
            flipped.sort()
            self._report(row, value, time, tuple(query_id for _, query_id in flipped))

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------
    def handle(self, message: Message) -> None:
        """A query's probe resyncs that query's slot only and replies
        with the value; a query's constraint installs into its slot."""
        row = message.stream_id - self.first_id
        kind = message.kind
        if kind is MessageKind.PROBE_REQUEST:
            value = float(self.resync(message.query, row))
            self._send(row, ProbeReplyMessage(message.stream_id, message.time, value))
        elif kind is MessageKind.CONSTRAINT:
            self.install(
                row,
                message.query,
                message.lower,
                message.upper,
                message.assumed_inside,
                message.time,
            )
        else:  # pragma: no cover - defensive
            raise RuntimeError(f"source received unexpected {kind}")

    def resync(self, query_id: str, rows) -> np.ndarray:
        """A probe for *query_id* at *rows* (one row, or a column of
        them): where its slot is installed, the believed side becomes
        the value's; returns the values."""
        values = self.values[rows]
        slot = self.slots[query_id]
        inside = (slot.lower[rows] <= values) & (values <= slot.upper[rows])
        slot.inside[rows] = np.where(slot.rank[rows] >= 0, inside, slot.inside[rows])
        self._note_slot(slot, rows)
        return values

    def install(
        self,
        row: int,
        query_id: str,
        lower: float,
        upper: float,
        assumed_inside: bool | None,
        time: float,
    ) -> None:
        """Deploy the filter ``[lower, upper]`` into *row*'s slot for
        *query_id*; a stale belief triggers one update tagged *query_id*
        (physically shared like any other).  The deployment rule of
        :meth:`ScalarPopulation.install
        <repro.streams.source.ScalarPopulation.install>`, on plain
        floats."""
        if not lower <= upper:  # also NaN
            FilterConstraint(lower, upper)  # raises its ValueError
        slot = self.slots[query_id]
        if slot.rank.item(row) < 0:
            slot.rank[row] = self.n_slots[row]
            self.n_slots[row] += 1
        value = self.values.item(row)
        inside = lower <= value <= upper
        # not FilterConstraint.is_silencing: [-inf, +-inf], [+inf, +inf]
        armed = not (math.isinf(lower) and (lower > 0 or math.isinf(upper)))
        slot.lower[row] = lower
        slot.upper[row] = upper
        slot.armed[row] = armed
        slot.inside[row] = inside
        if slot.table is not None:
            slot.table.scannable[self.first_id + row] = True
        self._note_slot(slot, row)
        if armed and assumed_inside is not None and bool(assumed_inside) != inside:
            self._report(row, value, time, (query_id,))
