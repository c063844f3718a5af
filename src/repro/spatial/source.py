"""Vector-valued stream sources with region filters, as columns.

Identical semantics to :class:`repro.streams.source.ScalarPopulation` —
report iff region membership flips, refresh on probe, self-correct on a
stale deployment belief — over points and regions (DESIGN.md §20): an
``(n, d)`` value plane, the installed regions as an object column, and
``filtered`` / ``inside`` planes.  A bound state table's geometric
plane takes each installed region's quiescence boxes, and its
``inside`` column the believed side, wherever they change.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.network.channel import Channel
from repro.network.messages import Message, MessageKind
from repro.runtime.membership import deployment_outcome
from repro.runtime.source import ChannelFilteredSource, Population
from repro.spatial.geometry import Region, as_point
from repro.spatial.messages import PointProbeReplyMessage, PointUpdateMessage


class SpatialStreamSource(ChannelFilteredSource):
    """A distributed source holding a d-dimensional point: a view of a
    :class:`PointPopulation` row."""

    __slots__ = ()

    def __init__(self, stream_id: int, initial_point, channel: Channel) -> None:
        stream_id = int(stream_id)
        self._population = PointPopulation(
            [as_point(initial_point)], [channel], [(stream_id, stream_id + 1)]
        )
        self._row = 0

    apply_point = ChannelFilteredSource.apply

    @property
    def point(self) -> np.ndarray:
        """The source's current point (a copy)."""
        return self.value

    @point.setter
    def point(self, value) -> None:
        self.value = as_point(value)

    @property
    def region(self) -> Region | None:
        """The region filter currently installed (if any)."""
        return self._population.regions[self._row]

    container = region

    @property
    def reported_inside(self) -> bool:
        return bool(self._population.inside[self._row])


class PointPopulation(Population):
    """The spatial stack's sources: ``values`` ``(n, d)``, ``regions``
    (``None`` while a row has no filter), ``filtered`` and ``inside``."""

    view = SpatialStreamSource

    def __init__(
        self,
        initial_points,
        channels: Sequence[Channel],
        ranges: Sequence[tuple[int, int]],
    ) -> None:
        points = np.array(initial_points, dtype=np.float64, ndmin=2)
        super().__init__(points, channels, ranges)
        n = len(points)
        self.regions = np.full(n, None, dtype=object)
        self.filtered = np.zeros(n, dtype=bool)
        self.inside = np.zeros(n, dtype=bool)

    def bind_state(self, table) -> None:
        """Make *table* (row = stream id) the write-through target: no
        box for a row without a filter, every installed region's boxes
        and every believed side."""
        self.table = table
        ids = slice(self.first_id, self.first_id + len(self))
        table.geo_scannable[ids] = False
        table.inside[ids] = self.inside
        if table.geo_lower is not None:
            table.geo_lower[ids] = np.inf
            table.geo_upper[ids] = -np.inf
            table.geo_outer_lower[ids] = -np.inf
            table.geo_outer_upper[ids] = np.inf
        for row in np.flatnonzero(self.filtered).tolist():
            self._write_through(row)

    def _write_through(self, row: int) -> None:
        """The row's region boxes (none when it cannot bound itself with
        boxes: its records then dispatch per event) and believed side."""
        stream_id = self.first_id + row
        boxes = self.regions[row].quiescence_bboxes(self.values.shape[1])
        if boxes is None:
            self.table.clear_region_filter(stream_id)
        else:
            self.table.record_region_deploy(stream_id, *boxes)
        self.table.set_inside(stream_id, self.inside.item(row))

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    def apply(self, row: int, payload, time: float) -> None:
        """Move *row* to a new point; report it if the region demands
        (with no region installed, every move)."""
        point = as_point(payload)
        self.values[row] = point
        if self.filtered.item(row):
            inside = self.regions[row].contains(point)
            if inside == self.inside.item(row):
                return
            self.inside[row] = inside
        if self.table is not None:
            self.table.set_inside(self.first_id + row, self.inside.item(row))
        self._send(row, PointUpdateMessage(self.first_id + row, time, point.copy()))

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------
    def handle(self, message: Message) -> None:
        """A probe request resynchronizes the believed side and replies
        with the current point; a constraint installs the new region and
        self-corrects with one report when the server's belief was stale."""
        row = message.stream_id - self.first_id
        point = self.values[row]
        if message.kind is MessageKind.PROBE_REQUEST:
            if self.filtered.item(row):
                inside = self.regions[row].contains(point)
                self.inside[row] = inside
                if self.table is not None:
                    self.table.set_inside(message.stream_id, inside)
            self._send(
                row,
                PointProbeReplyMessage(message.stream_id, message.time, point.copy()),
            )
        elif message.kind is MessageKind.CONSTRAINT:
            region = message.region
            inside, must_report = deployment_outcome(
                region, message.assumed_inside, point
            )
            self.regions[row] = region
            self.filtered[row] = True
            self.inside[row] = inside
            if self.table is not None:
                self._write_through(row)
            if must_report:
                self._send(
                    row,
                    PointUpdateMessage(message.stream_id, message.time, point.copy()),
                )
        else:  # pragma: no cover - defensive
            raise RuntimeError(f"source received unexpected {message.kind}")
