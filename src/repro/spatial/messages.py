"""Vector-valued message types and their columnar wire frames.

Mirrors :mod:`repro.network.messages` with payloads generalized to
points and regions; the same :class:`~repro.network.messages.MessageKind`
taxonomy (and hence the same ledger accounting) applies.

The second half of this module is the spatial RPC *frame* codec used by
the process shard transport (DESIGN.md §10).  A frame packs one epoch
batch of points or regions into contiguous little-endian numpy buffers
— x/y columns for point batches, constraint-rect columns for region
batches — so a worker epoch is one recv plus one vectorized scatter
instead of a per-object pickle loop.  Regions that have no columnar
encoding (unions, custom subclasses) ride along through a pickled
escape row, so the frame vocabulary is total over the region algebra.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field

import numpy as np

from repro.network.messages import Message, MessageKind
from repro.spatial.geometry import (
    ALL_SPACE,
    EMPTY_REGION,
    BallRegion,
    BoxRegion,
    Region,
)


@dataclass(frozen=True)
class PointUpdateMessage(Message):
    """Source-to-server report of a vector value."""

    point: np.ndarray = field(default_factory=lambda: np.zeros(1))

    kind = MessageKind.UPDATE


@dataclass(frozen=True)
class PointProbeRequestMessage(Message):
    """Server-to-source request for the current point."""

    kind = MessageKind.PROBE_REQUEST


@dataclass(frozen=True)
class PointProbeReplyMessage(Message):
    """Source-to-server probe reply carrying the current point."""

    point: np.ndarray = field(default_factory=lambda: np.zeros(1))

    kind = MessageKind.PROBE_REPLY


@dataclass(frozen=True)
class RegionConstraintMessage(Message):
    """Server-to-source deployment of a region filter.

    ``assumed_inside`` carries the server's membership belief exactly as
    in the 1-D :class:`~repro.network.messages.ConstraintMessage`.
    """

    region: Region = None  # type: ignore[assignment]
    assumed_inside: bool | None = None

    kind = MessageKind.CONSTRAINT


# ---------------------------------------------------------------------------
# Columnar wire frames (shard-transport RPC payloads, DESIGN.md §10)
# ---------------------------------------------------------------------------

#: Region kind codes in a :class:`RegionBatchFrame`'s ``kinds`` column.
REGION_BOX = 0  #: params row = ``lows ‖ highs`` (2d columns, exact)
REGION_BALL = 1  #: params row = ``center ‖ radius`` (d+1 columns used)
REGION_ALL_SPACE = 2  #: no params (the false-positive silencer)
REGION_EMPTY = 3  #: no params (the false-negative silencer)
REGION_PICKLED = 4  #: params[0] = index into ``blobs`` (escape hatch)

_POINT_I8 = np.dtype("<i8")
_POINT_F8 = np.dtype("<f8")


def _le_column(values, dtype, shape=None) -> np.ndarray:
    """Coerce to a C-contiguous little-endian column of *dtype*."""
    column = np.ascontiguousarray(values, dtype=dtype)
    if shape is not None and column.shape != shape:
        raise ValueError(
            f"frame column has shape {column.shape}, expected {shape}"
        )
    return column


@dataclass(frozen=True)
class PointBatchFrame:
    """One epoch batch of stream points on the wire.

    Three parallel little-endian columns: ``rows`` (``<i8`` local or
    global stream rows), ``points`` (``(m, d)`` ``<f8`` coordinate
    matrix, one x/y/… column per dimension) and ``times`` (``<f8``
    report times).  The receiver scatters all three in one vectorized
    assignment.
    """

    rows: np.ndarray
    points: np.ndarray
    times: np.ndarray

    @property
    def dimension(self) -> int:
        return int(self.points.shape[1])

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        """``(row, point, time)`` per entry — the shape of a captured
        uplink, so a frame reads like the scalar stack's tuple list."""
        return zip(self.rows.tolist(), self.points, self.times.tolist())


def pack_points(rows, points, times, dimension: int) -> PointBatchFrame:
    """Frame a point batch as contiguous little-endian columns.

    ``rows``/``times`` may be any integer/float sequences; ``points`` is
    an ``(m, d)`` matrix (or any nested sequence coercible to one).
    Empty batches are legal and keep the declared *dimension* so the
    receiver can still validate shapes.
    """
    rows = _le_column(rows, _POINT_I8)
    if rows.ndim != 1:
        raise ValueError("rows must be a 1-D column")
    m = len(rows)
    points = _le_column(points, _POINT_F8, shape=(m, int(dimension)))
    times = _le_column(times, _POINT_F8, shape=(m,))
    return PointBatchFrame(rows=rows, points=points, times=times)


@dataclass(frozen=True)
class RegionBatchFrame:
    """One epoch batch of region constraints on the wire.

    ``kinds`` is a ``uint8`` code column (:data:`REGION_BOX` …);
    ``params`` is an ``(m, 2d)`` ``<f8`` matrix whose row layout depends
    on the kind — boxes store their constraint rect as ``lows ‖ highs``,
    balls store ``center ‖ radius`` (remaining columns zero), silencers
    store nothing.  Regions with no columnar encoding are pickled into
    ``blobs`` and referenced by index from ``params[row, 0]``, keeping
    the frame total over the region algebra without giving up the
    contiguous fast path for the common kinds.
    """

    dimension: int
    kinds: np.ndarray
    params: np.ndarray
    blobs: tuple[bytes, ...] = ()

    def __len__(self) -> int:
        return len(self.kinds)


def pack_regions(regions, dimension: int) -> RegionBatchFrame:
    """Encode an ordered region batch as a :class:`RegionBatchFrame`.

    Protocols deploy *shared* region objects (one silencer or query box
    across many streams), so encoding caches by object identity — each
    distinct object is analyzed once regardless of batch size.
    """
    dimension = int(dimension)
    regions = list(regions)
    m = len(regions)
    width = max(2 * dimension, dimension + 1, 1)
    kinds = np.zeros(m, dtype=np.uint8)
    params = np.zeros((m, width), dtype=_POINT_F8)
    blobs: list[bytes] = []
    encoded: dict[int, tuple[int, np.ndarray | None]] = {}
    blob_index: dict[int, int] = {}
    for i, region in enumerate(regions):
        key = id(region)
        cached = encoded.get(key)
        if cached is None:
            cached = _encode_region(region, dimension, blobs, blob_index)
            encoded[key] = cached
        kind, row = cached
        kinds[i] = kind
        if row is not None:
            params[i, : len(row)] = row
    return RegionBatchFrame(
        dimension=dimension, kinds=kinds, params=params, blobs=tuple(blobs)
    )


def _encode_region(
    region: Region,
    dimension: int,
    blobs: list[bytes],
    blob_index: dict[int, int],
) -> tuple[int, np.ndarray | None]:
    if region is ALL_SPACE:
        return REGION_ALL_SPACE, None
    if region is EMPTY_REGION:
        return REGION_EMPTY, None
    if type(region) is BoxRegion and len(region.lows) == dimension:
        return REGION_BOX, np.concatenate([region.lows, region.highs])
    if type(region) is BallRegion and len(region.center) == dimension:
        return REGION_BALL, np.append(region.center, region.radius)
    blob = pickle.dumps(region, protocol=pickle.HIGHEST_PROTOCOL)
    index = blob_index.get(id(region))
    if index is None:
        index = len(blobs)
        blobs.append(blob)
        blob_index[id(region)] = index
    return REGION_PICKLED, np.asarray([float(index)])


def unpack_regions(frame: RegionBatchFrame) -> list[Region]:
    """Decode a :class:`RegionBatchFrame` back into region objects.

    Rows with identical encodings decode to *one shared instance* —
    mirroring the sequential coordinator, where many streams hold a
    reference to the same deployed region object.  This keeps worker
    memory proportional to distinct constraints, not batch size.
    """
    d = int(frame.dimension)
    decoded: dict[tuple, Region] = {}
    out: list[Region] = []
    for i in range(len(frame.kinds)):
        kind = int(frame.kinds[i])
        if kind == REGION_ALL_SPACE:
            out.append(ALL_SPACE)
            continue
        if kind == REGION_EMPTY:
            out.append(EMPTY_REGION)
            continue
        if kind == REGION_BOX:
            key = (kind, frame.params[i, : 2 * d].tobytes())
        elif kind == REGION_BALL:
            key = (kind, frame.params[i, : d + 1].tobytes())
        elif kind == REGION_PICKLED:
            key = (kind, frame.blobs[int(frame.params[i, 0])])
        else:
            raise ValueError(f"unknown region kind code {kind}")
        region = decoded.get(key)
        if region is None:
            if kind == REGION_BOX:
                region = BoxRegion(
                    frame.params[i, :d].copy(),
                    frame.params[i, d : 2 * d].copy(),
                )
            elif kind == REGION_BALL:
                region = BallRegion(
                    frame.params[i, :d].copy(), float(frame.params[i, d])
                )
            else:
                region = pickle.loads(frame.blobs[int(frame.params[i, 0])])
            decoded[key] = region
        out.append(region)
    return out
