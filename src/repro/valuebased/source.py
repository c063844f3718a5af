"""Sources with Olston-style self-recentering value windows.

Unlike the paper's filters — fixed intervals installed by the server,
violated on *membership flips* — a value window travels with the data:
after each report the window recenters on the reported value.  No
constraint messages are needed during maintenance; the width is fixed at
installation.  A window is an interval the server always believes the
source is inside, so the population is :class:`~repro.streams.source.
ScalarPopulation` rows whose interval recenters on every report and
every probe reply (DESIGN.md §20).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.network.channel import Channel
from repro.network.messages import Message, MessageKind, UpdateMessage
from repro.runtime.source import ChannelFilteredSource
from repro.streams.source import ScalarPopulation


class WindowFilterSource(ChannelFilteredSource):
    """A source reporting when its value escapes a +-width/2 window: a
    view of a :class:`WindowPopulation` row."""

    __slots__ = ()

    def __init__(
        self,
        stream_id: int,
        initial_value: float,
        channel: Channel,
        width: float,
    ) -> None:
        stream_id = int(stream_id)
        self._population = WindowPopulation(
            [initial_value], [channel], [(stream_id, stream_id + 1)], width
        )
        self._row = 0

    @property
    def width(self) -> float:
        return self._population.width

    @property
    def center(self) -> float:
        """The value the server currently believes (window centre)."""
        return self._population.centers.item(self._row)


class WindowPopulation(ScalarPopulation):
    """Value windows as :class:`ScalarPopulation` rows.

    Row ``i``'s filter is ``[c - width/2, c + width/2]`` around the value
    ``c`` it last sent (``centers``), believed inside: the scalar row
    step reports exactly when the value escapes it, and every report or
    probe reply recenters it — in the bound table's columns, which the
    planes are — before the message leaves.
    """

    view = WindowFilterSource

    def __init__(
        self,
        initial_values,
        channels: Sequence[Channel],
        ranges: Sequence[tuple[int, int]],
        width: float,
    ) -> None:
        if width < 0:
            raise ValueError("window width must be non-negative")
        super().__init__(initial_values, channels, ranges)
        self.width = float(width)
        half = self.width / 2.0
        self.centers = self.values.copy()
        self.lower = self.values - half
        self.upper = self.values + half
        self.filtered[:] = True
        self.inside[:] = True

    def bind_state(self, table) -> None:
        """Alias the filter planes, and seed *table*'s value column with
        the centres: a window is installed around the value the server
        knows, and that knowledge costs no message."""
        super().bind_state(table)
        table.record_report_rows(np.arange(len(self.centers)), self.centers, 0.0)

    def _report(self, row: int, value: float, time: float, message=UpdateMessage):
        half = self.width / 2.0
        lower, upper = value - half, value + half
        self.centers[row] = value
        self.lower[row], self.upper[row] = lower, upper
        self.inside[row] = True
        self._note(row)
        super()._report(row, value, time, message)

    def handle(self, message: Message) -> None:
        if message.kind is MessageKind.CONSTRAINT:
            raise RuntimeError(
                f"window source received unexpected {message.kind}"
            )
        super().handle(message)
