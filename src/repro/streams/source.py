"""The stream sources: agent software at the data producers (Figure 3).

The paper's source is four numbers — its current value, the filter
``[l, u]`` the server installed (if any), and the side of it the server
believes — and it reports iff that side flips (the violation rule of
:mod:`repro.streams.filters`).  A population of ``n`` such sources is
therefore five planes over ``n`` rows, and :class:`ScalarPopulation` is
exactly that (DESIGN.md §18): there is no per-stream object.
:class:`StreamSource` is a *view* of one row — what tests and listeners
read — and a hand-built ``StreamSource(id, value, channel)`` is a
population of one, so there is one implementation.

One protocol detail the paper leaves implicit: when the server deploys a
*new* constraint, its belief about which side of the bound the source is on
may be stale (e.g. RTP's expanding search deploys a wider ``R`` without
probing every stream).  The deployment message therefore carries the
server's assumed membership; if the source's actual membership differs, it
reports immediately, which the server handles through its normal
maintenance path.  This keeps Correctness Requirement 2 intact without
probing all ``n`` streams on every resolution.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Sequence

import numpy as np

from repro.network.channel import Channel
from repro.network.messages import (
    Message,
    MessageKind,
    ProbeReplyMessage,
    UpdateMessage,
)
from repro.runtime.source import ChannelFilteredSource, Population, alias_planes
from repro.streams.filters import FilterConstraint


class StreamSource(ChannelFilteredSource):
    """One stream's source: a view of a :class:`ScalarPopulation` row.

    ``population[i]`` builds one on demand; ``StreamSource(stream_id,
    initial_value, channel)`` makes — and binds to *channel* — a
    population of one.
    """

    __slots__ = ()

    def __init__(
        self, stream_id: int, initial_value: float, channel: Channel
    ) -> None:
        stream_id = int(stream_id)
        self._population = ScalarPopulation(
            [initial_value], [channel], [(stream_id, stream_id + 1)]
        )
        self._row = 0

    @property
    def constraint(self) -> FilterConstraint | None:
        """The filter constraint currently installed (if any)."""
        population, row = self._population, self._row
        if not population.filtered[row]:
            return None
        return FilterConstraint(
            population.lower.item(row), population.upper.item(row)
        )

    container = constraint

    @property
    def reported_inside(self) -> bool:
        """The membership state the server currently believes."""
        return bool(self._population.inside[self._row])

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"StreamSource(id={self.stream_id}, value={self.value:.3f}, "
            f"constraint={self.constraint})"
        )


class ScalarPopulation(Population):
    """The scalar stack's sources, as columns (DESIGN.md §18).

    Row ``i`` is the source of stream ``first_id + i``; one handler per
    ``(channel, id range)`` serves them all.  The planes are ``values``
    (the current value — and the batched replay's staging vector),
    ``lower`` / ``upper`` / ``filtered`` (the installed filter;
    ``[-inf, +inf]`` / ``False`` while there is none) and ``inside``
    (the side of it the server believes).  Once bound, the four filter
    planes *are* the table's ``lower`` / ``upper`` / ``scannable`` /
    ``inside`` columns: install is their only writer, so under a latency
    model a row with a constraint in flight holds the filter its source
    installed, not the one on its way (DESIGN.md §21).
    """

    view = StreamSource

    def __init__(
        self,
        initial_values,
        channels: Sequence[Channel],
        ranges: Sequence[tuple[int, int]],
    ) -> None:
        values = np.array(initial_values, dtype=np.float64, ndmin=1)
        super().__init__(values, channels, ranges)
        n = len(values)
        self.lower = np.full(n, -math.inf)
        self.upper = np.full(n, math.inf)
        self.filtered = np.zeros(n, dtype=bool)
        self.inside = np.zeros(n, dtype=bool)

    def bind_state(self, table) -> None:
        """Make the filter planes views of *table*'s constraint columns
        (row = stream id), copying them in once."""
        self.table = table
        alias_planes(
            self, table, self.first_id,
            lower="lower", upper="upper", filtered="scannable", inside="inside",
        )

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    def apply(self, row: int, payload, time: float) -> None:
        """Install a new value at *row*; report it if the filter demands."""
        # ``.item`` reads Python scalars: half the cost of comparing
        # numpy ones on this, the per-event path.
        value = float(payload)
        self.values[row] = value
        if self.filtered.item(row):
            inside = self.lower.item(row) <= value <= self.upper.item(row)
            if inside == self.inside.item(row):
                return
            self.inside[row] = inside
            self._note()
        self._report(row, value, time)

    def _report(self, row: int, value: float, time: float, message=UpdateMessage):
        """Send *message* — an update, or a probe's reply — for *row* up
        the channel of its id range."""
        channels = self._channels
        channel = channels[0]
        if len(channels) > 1:
            channel = channels[bisect_right(self._ends, row)]
        channel.send_to_server(message(self.first_id + row, time, value))

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------
    def handle(self, message: Message) -> None:
        """A probe request resynchronizes the believed side and replies
        with the current value; a constraint installs the new filter and
        self-corrects with one report when the server's belief was stale."""
        row = message.stream_id - self.first_id
        kind = message.kind
        if kind is MessageKind.PROBE_REQUEST:
            value = self.values.item(row)
            if self.filtered.item(row):
                inside = self.lower.item(row) <= value <= self.upper.item(row)
                self.inside[row] = inside
                self._note()
            self._report(row, value, message.time, ProbeReplyMessage)
        elif kind is MessageKind.CONSTRAINT:
            self.install(
                row,
                message.lower,
                message.upper,
                message.assumed_inside,
                message.time,
            )
        else:  # pragma: no cover - defensive
            raise RuntimeError(f"source received unexpected {kind}")

    def install(
        self, row: int, lower: float, upper: float, assumed_inside, time: float
    ) -> None:
        """Install the filter ``[lower, upper]`` at *row*: the one install
        rule, whether a constraint arrives as a message (:meth:`handle`)
        or as a row of a latency-modeled batch.  The believed side
        becomes the actual one, and a stale *assumed_inside* belief
        self-corrects with one report sent at *time* —
        :func:`~repro.runtime.membership.deployment_outcome` on plain
        floats, with no :class:`FilterConstraint` built but for the
        error of a NaN or inverted bound."""
        if not lower <= upper:  # also NaN
            FilterConstraint(lower, upper)  # raises its ValueError
        value = self.values.item(row)
        inside = lower <= value <= upper
        self.lower[row] = lower
        self.upper[row] = upper
        self.filtered[row] = True
        self.inside[row] = inside
        self._note()
        if (
            assumed_inside is not None
            and bool(assumed_inside) != inside
            # not FilterConstraint.is_silencing: [-inf, +-inf], [+inf, +inf]
            and not (math.isinf(lower) and (lower > 0 or math.isinf(upper)))
        ):
            self._report(row, value, time)
