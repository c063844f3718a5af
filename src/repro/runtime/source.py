"""Sources as columns: the population base and its one-row views.

Every stack's sources are a *population* (DESIGN.md §18, §20): planes
over ``n`` rows — the value plane, the installed filter, the side of it
the server believes — served by one handler per ``(channel, id range)``.
:class:`Population` holds what they share (the value plane, which is
also the batched replay's staging vector, the id range and the channel
binding); each stack's population adds its filter planes and its
per-event ``apply(row, payload, time)`` / ``handle(message)``:
``repro.streams.source.ScalarPopulation`` (intervals),
``repro.valuebased.source.WindowPopulation`` (recentering windows),
``repro.spatial.source.PointPopulation`` (regions) and
``repro.multiquery.source.SlotPopulation`` (one interval per query).
Bound to a state table, the filter planes are views of its columns
(:func:`alias_planes`, DESIGN.md §21): one array per fact.

:class:`FilteredSource` is a *view* of one row — ``population[i]``
builds one on demand — and each stack's source class
(``StreamSource``, ``WindowFilterSource``, ``SpatialStreamSource``) is
such a view whose constructor builds a population of one, so a
hand-built source and an assembled one are the same implementation; a
slotted row, with nothing of its own to show, is the plain
:class:`ChannelFilteredSource`.  No hot path builds a view.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import index
from typing import Sequence

import numpy as np

from repro.network.channel import Channel
from repro.network.messages import Message


class FilteredSource:
    """One source: row ``_row`` of a population, viewed as an object."""

    __slots__ = ("_population", "_row")

    @classmethod
    def _of(cls, population: "Population", row: int) -> "FilteredSource":
        view = cls.__new__(cls)
        view._population, view._row = population, row
        return view

    @property
    def stream_id(self) -> int:
        return self._population.first_id + self._row

    @property
    def value(self):
        """The current payload: a ``float``, or a copy of the point."""
        value = self._population.values[self._row]
        return value.copy() if value.ndim else value.item()

    @value.setter
    def value(self, value) -> None:
        self._population.values[self._row] = value

    @property
    def membership(self) -> "FilteredSource":
        """The view is its own membership: ``container`` and
        ``reported_inside`` read the same row."""
        return self

    def apply(self, payload, time: float) -> None:
        """Install a new payload; report if the filter demands it."""
        self._population.apply(self._row, payload, time)


class ChannelFilteredSource(FilteredSource):
    """A view of a channel-backed population's row."""

    __slots__ = ()

    def _handle_message(self, message: Message) -> None:
        """Deliver a server-to-source message to this row."""
        self._population.handle(message)


def alias_planes(holder, table, first_id: int, **planes: str) -> None:
    """Make *holder*'s planes *table*'s: each ``name=column`` plane is
    copied into rows ``first_id ..`` of that table column once, then
    replaced by a view of them, so one array holds the fact and a write
    to either is a write to both (DESIGN.md §21)."""
    for name, column in planes.items():
        plane = getattr(holder, name)
        view = getattr(table, column)[first_id : first_id + len(plane)]
        view[...] = plane
        setattr(holder, name, view)


class Population:
    """Row ``i`` is the source of stream ``first_id + i``.

    ``values`` is the value plane — ``(n,)`` scalars or ``(n, d)``
    points — and the batched replay's staging vector; ``table`` is the
    state table whose columns the filter planes are views of (``None``
    until bound: they are then the population's own arrays).  Each
    ``(channel, id range)`` binds :meth:`handle` once; an uplink leaves
    on the channel of its row's range.
    """

    #: The :class:`FilteredSource` class ``population[i]`` returns.
    view: type

    def __init__(
        self,
        values: np.ndarray,
        channels: Sequence[Channel],
        ranges: Sequence[tuple[int, int]],
    ) -> None:
        self.values = values
        self.first_id = int(ranges[0][0])
        if ranges[-1][1] - self.first_id != len(values):
            raise ValueError("id ranges must cover exactly the initial values")
        self.table = None
        self._channels = list(channels)
        #: Exclusive upper *row* of each channel's range.
        self._ends = [hi - self.first_id for _, hi in ranges]
        for channel, (lo, hi) in zip(self._channels, ranges):
            channel.bind_sources(lo, hi, self.handle)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, row: int) -> FilteredSource:
        row = index(row)
        n = len(self.values)
        if not -n <= row < n:
            raise IndexError(f"row {row} of a population of {n}")
        return self.view._of(self, row % n)

    def stage(self, rows, values) -> None:
        """Install values *without* filter evaluation: only valid for
        records already proven quiescent.  A repeated row keeps its last
        value (numpy does not document that order;
        ``tests/state/test_scatter_order.py`` pins it)."""
        self.values[rows] = values

    def _note(self, row: int) -> None:
        """Tell the bound table that *row*'s filter or believed side was
        just written (its write log names the table row)."""
        if self.table is not None:
            self.table._note_constraint(self.first_id + row)

    def _send(self, row: int, message: Message) -> None:
        """Send *message* up the channel of *row*'s id range."""
        channels = self._channels
        channel = channels[0]
        if len(channels) > 1:
            channel = channels[bisect_right(self._ends, row)]
        channel.send_to_server(message)
