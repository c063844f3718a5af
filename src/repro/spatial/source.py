"""Vector-valued stream sources with region filters, as columns.

Identical semantics to :class:`repro.streams.source.ScalarPopulation` —
report iff region membership flips, refresh on probe, self-correct on a
stale deployment belief — over points and regions (DESIGN.md §20): an
``(n, d)`` value plane, the installed regions as an object column, and
``filtered`` / ``inside`` planes.  Once bound to a state table, the
region column and ``inside`` are views of its ``containers`` and
``inside`` columns (DESIGN.md §21), and its geometric plane takes each
installed region's quiescence boxes.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.network.channel import Channel
from repro.network.messages import Message, MessageKind
from repro.runtime.membership import deployment_outcome
from repro.runtime.source import ChannelFilteredSource, Population, alias_planes
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
        """Bind to *table* (row = stream id): no box for a row without a
        filter and every installed region's boxes, then ``regions`` and
        ``inside`` become views of its ``containers`` and ``inside``
        columns.  ``inside`` is copied last: clearing a box-less region
        resets the table's believed side."""
        self.table = table
        ids = slice(self.first_id, self.first_id + len(self))
        table.geo_scannable[ids] = False
        if table.geo_lower is not None:
            table.geo_lower[ids] = np.inf
            table.geo_upper[ids] = -np.inf
            table.geo_outer_lower[ids] = -np.inf
            table.geo_outer_upper[ids] = np.inf
        for row in np.flatnonzero(self.filtered).tolist():
            self._write_boxes(row)
        table._ensure_containers()
        alias_planes(
            self, table, self.first_id, regions="containers", inside="inside"
        )

    def _write_boxes(self, row: int) -> None:
        """The row's region boxes in the bound table's geometric plane
        (none when it cannot bound itself with boxes: its records then
        dispatch per event, and the table's believed side is reset)."""
        stream_id = self.first_id + row
        boxes = self.regions[row].quiescence_bboxes(self.values.shape[1])
        if boxes is None:
            self.table.clear_region_filter(stream_id)
        else:
            self.table.record_region_deploy(stream_id, *boxes)

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
            self._note(row)
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
                self._note(row)
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
            if self.table is not None:
                self._write_boxes(row)
            self.inside[row] = inside  # after the boxes, which may reset it
            if must_report:
                self._send(
                    row,
                    PointUpdateMessage(message.stream_id, message.time, point.copy()),
                )
        else:  # pragma: no cover - defensive
            raise RuntimeError(f"source received unexpected {message.kind}")
