"""The columnar stream-state table.

One :class:`StreamStateTable` holds, column-wise, everything one query's
server-side protocol knows about the stream population:

=========================  ====================================================
column                     meaning
=========================  ====================================================
``values`` / ``points``    last payload the server learned (update or probe)
``known``                  whether any payload has been learned yet
``lower`` / ``upper``      bounds of the deployed filter constraint
``inside``                 membership the server believes the source reported
``scannable``              a scalar filter is installed (pre-scan eligible)
``geo_lower``/``geo_upper``  inscribed (inner) bbox of the deployed region
``geo_outer_lower``/``..._upper``  circumscribed (outer) bbox of the region
``geo_scannable``          a region filter with usable bboxes is installed
``answer_mask``            ``A(t)`` — the answer reported to the user
``tracked_mask``           ``X(t)`` — RTP's objects believed inside ``R``
=========================  ====================================================

Which way a row is silenced is its constraint: ``[-inf, +inf]`` (a
false positive, believed inside) or ``[+inf, +inf]`` (a false negative,
believed outside); the FIFO order of the silencers is the protocol's
:class:`~repro.state.pools.SilencerPools`.  No plane stores either fact
a second time.

Ownership convention: the *value plane* (``values``, ``known``) is
written by the server on probe replies and update deliveries; the
*constraint plane* (``lower``/``upper``/``scannable``,
``containers``) and ``inside`` by the source side alone — a bound
population's filter planes are views of these columns (DESIGN.md §21),
so install is their only writer and a row whose constraint is still in
flight holds the filter its source has (the shard transport's
coordinator mirror, bound to no population, takes the bounds when it
ships them); the *membership planes* by the protocol.  Scalar payloads
live in ``values``; vector payloads (the spatial stack) in the
lazily-allocated ``points`` matrix.

The *geometric plane* (``geo_*``) is the spatial stack's counterpart of
the scalar constraint plane: per-dimension axis-aligned bounds of the
deployed :class:`~repro.spatial.geometry.Region`.  Its single writer is
the source-side :class:`~repro.spatial.source.PointPopulation` at
install time (whose region column is a view of ``containers``) — so
the plane engages exactly when sources are bound to the table via
``bind_state``, as every ``ExecutionSession`` assembly does.
Containment semantics are one-sided and conservative: a point inside
the *inner* (inscribed) bbox is provably inside the region; a point
outside the *outer* (circumscribed) bbox is provably outside; anything
in the shell between them is undecidable from the boxes alone and must
fall back to exact per-event geometry.
:meth:`geometric_quiescence_mask` turns that into the vectorized AABB
test the batched replay pre-scan uses.

:class:`RankView` instances register as listeners so every value-plane
write marks the touched row dirty for incremental rank repair.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Iterable

import numpy as np

#: Entries a write log holds before it stands for every row.
WRITE_LOG_CAP = 64

#: Plane storage backings: ``"ram"`` allocates ordinary ndarrays;
#: ``"mmap"`` allocates ``np.memmap`` columns as ``.npy`` files under a
#: plane directory, so populations whose planes exceed RAM still fit.
STORAGE_BACKINGS = ("ram", "mmap")


def membership_mask(stream_ids: Iterable[int], n_streams: int) -> np.ndarray:
    """The id set *stream_ids* (an id column or any iterable of ids) as a
    boolean column over *n_streams* rows."""
    mask = np.zeros(n_streams, dtype=bool)
    if not isinstance(stream_ids, np.ndarray):
        stream_ids = np.fromiter(stream_ids, np.int64)
    mask[stream_ids] = True
    return mask


class StreamStateTable:
    """Columnar server-side state for one standing query.

    Parameters
    ----------
    n_streams:
        Population size (one row per stream).
    storage:
        ``"ram"`` (default) or ``"mmap"``.  Under ``"mmap"`` every dense
        plane — value, constraint, membership, and the lazily-allocated
        geometric plane — lives in an ``np.memmap``-backed ``.npy`` file
        under *plane_dir*, so the table's working set is paged by the
        OS instead of held resident.  The object-dtype ``containers``
        column (spatial region objects) has no memmap representation;
        spatial protocols must use ``storage="ram"``.
    plane_dir:
        Directory holding the plane files (required for ``"mmap"``).
    """

    #: Storage defaults at class level (shard views — whose ``__init__``
    #: aliases a parent instead of calling ``super().__init__`` — inherit
    #: them): a view aliases its parent's arrays and never allocates planes.
    _storage: str = "ram"
    _plane_dir: str | None = None
    #: The rows the constraint writes named since a replay reader last
    #: emptied it; ``None`` while no reader holds it open
    #: (:meth:`_note_constraint`).
    write_log: list | None = None

    def __init__(
        self,
        n_streams: int,
        *,
        storage: str = "ram",
        plane_dir: str | os.PathLike | None = None,
    ) -> None:
        n = int(n_streams)
        if n < 0:
            raise ValueError("n_streams must be non-negative")
        if storage not in STORAGE_BACKINGS:
            raise ValueError(
                f"storage must be one of {STORAGE_BACKINGS}, got {storage!r}"
            )
        if storage == "mmap":
            if plane_dir is None:
                raise ValueError("storage='mmap' requires a plane_dir")
            plane_dir = os.fspath(plane_dir)
            os.makedirs(plane_dir, exist_ok=True)
        self._storage = storage
        self._plane_dir = plane_dir if storage == "mmap" else None
        self.n_streams = n
        # Value plane (server knowledge).
        self.values = self._alloc("values", (n,), np.float64)
        self.known = self._alloc("known", (n,), bool)
        self.points: np.ndarray | None = None  # (n, d), spatial stacks only
        # Constraint plane (installed filters; a bound population's views).
        self.lower = self._alloc("lower", (n,), np.float64, fill=-math.inf)
        self.upper = self._alloc("upper", (n,), np.float64, fill=math.inf)
        self.inside = self._alloc("inside", (n,), bool)
        self.scannable = self._alloc("scannable", (n,), bool)
        self.containers: np.ndarray | None = None  # object column, spatial
        # Geometric plane (deployed regions' bboxes; lazily allocated
        # (n, d) like ``points``).  Defaults are claim-free: an empty
        # inner box (+inf, -inf) proves nothing inside, an infinite
        # outer box proves nothing outside.
        self.geo_lower: np.ndarray | None = None
        self.geo_upper: np.ndarray | None = None
        self.geo_outer_lower: np.ndarray | None = None
        self.geo_outer_upper: np.ndarray | None = None
        self.geo_scannable = self._alloc("geo_scannable", (n,), bool)
        # Membership planes.
        self.answer_mask = self._alloc("answer_mask", (n,), bool)
        self.tracked_mask = self._alloc("tracked_mask", (n,), bool)
        self._answer_count = 0
        #: Bumped by every answer write that may move ``answer_mask`` (§14).
        self.answer_epoch = 0
        self._tracked_count = 0
        self._known_count = 0
        self._listeners: list = []

    # ------------------------------------------------------------------
    # Plane storage
    # ------------------------------------------------------------------
    def _alloc(
        self, name: str, shape: tuple[int, ...], dtype, fill=None
    ) -> np.ndarray:
        """Allocate one plane in the configured backing.

        Memory-mapped planes are standard ``.npy`` files (via
        ``np.lib.format.open_memmap``), so a crashed run's plane files
        remain loadable with ``np.load`` for post-mortem inspection.
        """
        if self._storage == "mmap":
            from numpy.lib.format import open_memmap

            assert self._plane_dir is not None
            array = open_memmap(
                os.path.join(self._plane_dir, f"{name}.npy"),
                mode="w+",
                dtype=dtype,
                shape=shape,
            )
        else:
            array = np.zeros(shape, dtype=dtype)
        if fill is not None:
            array[...] = fill
        return array

    @property
    def storage(self) -> str:
        """The plane backing: ``"ram"`` or ``"mmap"``."""
        return self._storage

    @property
    def plane_dir(self) -> str | None:
        """Directory of the memmap plane files (``None`` for RAM)."""
        return self._plane_dir

    def flush_planes(self) -> None:
        """Flush memory-mapped planes to their backing files (no-op for
        RAM tables)."""
        for plane in self.__dict__.values():
            if isinstance(plane, np.memmap):
                plane.flush()

    def __getstate__(self) -> dict:
        """Pickle memmap planes *by value* as ordinary RAM arrays.

        A pickled table is a point-in-time copy of the state — exactly
        what durability snapshots need — so the file backing must not
        travel with it: the restored table holds plain ndarrays and is
        independent of the original run directory.
        """
        state = dict(self.__dict__)
        if state.get("_storage") == "mmap":
            for name, plane in list(state.items()):
                if isinstance(plane, np.memmap):
                    state[name] = np.array(plane)
            state["_storage"] = "ram"
            state["_plane_dir"] = None
        return state

    # ------------------------------------------------------------------
    # Value plane
    # ------------------------------------------------------------------
    def record_report(self, stream_id: int, payload) -> None:
        """Install the payload the server just learned for one stream."""
        stream_id = int(stream_id)
        if isinstance(payload, np.ndarray) and payload.ndim > 0:
            points = self._ensure_points(len(payload))
            points[stream_id] = payload
        else:
            self.values[stream_id] = payload
        if not self.known[stream_id]:
            self.known[stream_id] = True
            self._known_count += 1
        for listener in self._listeners:
            listener.note(stream_id)

    def record_report_rows(self, rows: np.ndarray, payloads) -> None:
        """Vectorized :meth:`record_report` over distinct *rows* (a bulk
        probe's replies): a value column, or an ``(m, d)`` point matrix.
        Rank views are invalidated wholesale: that moves only their next
        recompute's cost, never its result.
        """
        if np.ndim(payloads) == 2:
            self._ensure_points(np.shape(payloads)[1])[rows] = payloads
        else:
            self.values[rows] = payloads
        fresh = int(np.count_nonzero(~self.known[rows]))
        if fresh:
            self.known[rows] = True
            self._known_count += fresh
        for listener in self._listeners:
            listener.invalidate()

    def _ensure_points(self, dimension: int) -> np.ndarray:
        if self.points is None:
            self.points = self._alloc(
                "points", (self.n_streams, int(dimension)), np.float64
            )
        return self.points

    def payload_array(self) -> np.ndarray:
        """The payload column: ``values`` (scalar) or ``points`` (vector)."""
        return self.values if self.points is None else self.points

    def value_of(self, stream_id: int):
        """The last-known payload of one stream."""
        return self.payload_array()[int(stream_id)]

    @property
    def known_count(self) -> int:
        return self._known_count

    def known_ids(self) -> np.ndarray:
        """Ids with a known payload, ascending."""
        return np.nonzero(self.known)[0]

    # ------------------------------------------------------------------
    # Constraint plane
    # ------------------------------------------------------------------
    def _note_constraint(self, rows=None) -> None:
        """Some rows' deployed bounds or believed membership — scalar or
        geometric — were just written: *rows* names them (a row, a
        column or ``range`` of rows; ``None``: every row), and a bulk
        write notes once.  While a replay reader holds the write log open
        (a list) the rows are appended to it.  The reader empties it as
        it reads, so it only ever holds one reaction's writes; past
        :data:`WRITE_LOG_CAP` entries, or at a ``None``, it ends in one
        ``None`` that stands for every row and takes nothing more
        (DESIGN.md §9).  Closed (``None``), nothing is kept."""
        log = self.write_log
        if log is not None and not (log and log[-1] is None):
            log.append(None if len(log) >= WRITE_LOG_CAP else rows)

    def record_deploy(self, stream_id: int, lower: float, upper: float) -> None:
        """Record the scalar bounds of a deployed filter constraint."""
        stream_id = int(stream_id)
        self.lower[stream_id] = lower
        self.upper[stream_id] = upper
        self.scannable[stream_id] = True
        self._note_constraint(stream_id)

    def _ensure_containers(self) -> np.ndarray:
        if self.containers is None:
            if self._storage == "mmap":
                raise ValueError(
                    "storage='mmap' cannot back the object-dtype "
                    "containers column (spatial region objects have no "
                    "memmap representation); use storage='ram' for "
                    "spatial protocols"
                )
            self.containers = np.empty(self.n_streams, dtype=object)
        return self.containers

    # ------------------------------------------------------------------
    # Geometric plane (regions' axis-aligned quiescence boxes)
    # ------------------------------------------------------------------
    def _ensure_geometry(self, dimension: int) -> None:
        """Allocate the four ``(n, d)`` bbox matrices, claim-free."""
        if self.geo_lower is None:
            n, d = self.n_streams, int(dimension)
            self.geo_lower = self._alloc(
                "geo_lower", (n, d), np.float64, fill=math.inf
            )
            self.geo_upper = self._alloc(
                "geo_upper", (n, d), np.float64, fill=-math.inf
            )
            self.geo_outer_lower = self._alloc(
                "geo_outer_lower", (n, d), np.float64, fill=-math.inf
            )
            self.geo_outer_upper = self._alloc(
                "geo_outer_upper", (n, d), np.float64, fill=math.inf
            )

    def record_region_deploy(
        self,
        stream_id: int,
        bbox_lo,
        bbox_hi,
        outer_lo=None,
        outer_hi=None,
    ) -> None:
        """Record the axis-aligned bounds of a deployed region filter.

        ``bbox_lo``/``bbox_hi`` is the *inscribed* (inner) box — every
        point inside it is provably inside the region; an empty box
        (``lo > hi``) makes no inside claims.  ``outer_lo``/``outer_hi``
        is the *circumscribed* (outer) box — every point outside it is
        provably outside the region; omitted means infinite (no outside
        claims).  Marks the row ``geo_scannable``.
        """
        bbox_lo = np.asarray(bbox_lo, dtype=np.float64)
        bbox_hi = np.asarray(bbox_hi, dtype=np.float64)
        if bbox_lo.shape != bbox_hi.shape or bbox_lo.ndim != 1:
            raise ValueError("bbox_lo and bbox_hi must be 1-D and congruent")
        self._ensure_geometry(len(bbox_lo))
        row = int(stream_id)
        assert self.geo_lower is not None
        if len(bbox_lo) != self.geo_lower.shape[1]:
            raise ValueError(
                f"bbox dimension {len(bbox_lo)} does not match the "
                f"table's geometric plane ({self.geo_lower.shape[1]})"
            )
        self.geo_lower[row] = bbox_lo
        self.geo_upper[row] = bbox_hi
        self.geo_outer_lower[row] = (
            -math.inf if outer_lo is None else outer_lo
        )
        self.geo_outer_upper[row] = (
            math.inf if outer_hi is None else outer_hi
        )
        self.geo_scannable[row] = True
        self._note_constraint(row)

    def clear_region_filter(self, stream_id: int) -> None:
        """Drop a row's region filter from the geometric plane."""
        row = int(stream_id)
        self.geo_scannable[row] = False
        self.inside[row] = False
        if self.geo_lower is not None:
            self.geo_lower[row] = math.inf
            self.geo_upper[row] = -math.inf
            self.geo_outer_lower[row] = -math.inf
            self.geo_outer_upper[row] = math.inf
        self._note_constraint(row)

    def geometric_quiescence_mask(
        self, points: np.ndarray, stream_ids: np.ndarray | None = None
    ) -> np.ndarray:
        """Vectorized AABB containment test: which *points* are provably
        quiescent for their streams' deployed regions?

        ``points`` is ``(m, d)``; ``stream_ids`` maps each row to its
        stream (defaults to ``arange(m)``, i.e. one point per stream).
        A row is quiescent iff the stream is ``geo_scannable`` and either
        the point is inside the inner bbox while the believed membership
        is *inside* (containment provably still ``True``), or the point
        is outside the outer bbox while believed *outside* (provably
        still ``False``).  Everything else — including the conservative
        shell between the boxes — is *not* claimed, so the mask never
        asserts quiescence that exact geometry would deny.
        """
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2:
            raise ValueError("points must be an (m, d) matrix")
        if self.geo_lower is None:
            return np.zeros(len(points), dtype=bool)
        if stream_ids is None:
            rows = np.arange(len(points))
        else:
            rows = np.asarray(stream_ids, dtype=np.int64)
        inner_ok = np.all(points >= self.geo_lower[rows], axis=1) & np.all(
            points <= self.geo_upper[rows], axis=1
        )
        outer_out = np.any(
            points < self.geo_outer_lower[rows], axis=1
        ) | np.any(points > self.geo_outer_upper[rows], axis=1)
        believed = self.inside[rows]
        return self.geo_scannable[rows] & (
            (inner_ok & believed) | (outer_out & ~believed)
        )

    # ------------------------------------------------------------------
    # Answer membership (A(t))
    # ------------------------------------------------------------------
    @property
    def answer_size(self) -> int:
        return self._answer_count

    def answer_contains(self, stream_id: int) -> bool:
        return bool(self.answer_mask[int(stream_id)])

    def answer_add(self, stream_id: int) -> None:
        stream_id = int(stream_id)
        if not self.answer_mask[stream_id]:
            self.answer_mask[stream_id] = True
            self._answer_count += 1
            self.answer_epoch += 1

    def answer_discard(self, stream_id: int) -> None:
        stream_id = int(stream_id)
        if self.answer_mask[stream_id]:
            self.answer_mask[stream_id] = False
            self._answer_count -= 1
            self.answer_epoch += 1

    def answer_replace(self, members: Iterable[int]) -> None:
        self.answer_set_mask(membership_mask(members, self.n_streams))

    def answer_assign_rows(self, rows: np.ndarray, members: np.ndarray) -> None:
        """Vectorized answer update: ``answer_mask[rows] = members``.

        One gather/scatter pair instead of per-stream
        :meth:`answer_add`/:meth:`answer_discard` calls, for any edit of
        distinct rows: the count stays exact because the old mask values
        are read before the scatter (the replay kernel's reports, which
        repeat rows, take :meth:`answer_take_reports`).
        """
        rows = np.asarray(rows)
        members = np.asarray(members, dtype=bool)
        before = int(np.count_nonzero(self.answer_mask[rows]))
        self.answer_mask[rows] = members
        self._answer_count += int(np.count_nonzero(members)) - before
        self.answer_epoch += 1

    def answer_take_reports(self, rows: np.ndarray, entering: np.ndarray) -> None:
        """Apply time-ordered membership reports: ``answer_mask[rows] =
        entering``, later rows winning (one scatter; numpy's repeated-index
        order is pinned by ``tests/state/test_scatter_order.py``).

        Each report flips its row's membership — the replay kernel's
        quiet reports of unsilenced streams, whose answer membership is
        their believed side (DESIGN.md §9) — so ``|A|`` moves by the net
        steps, one per report, with no read of the old values.
        """
        self.answer_mask[rows] = entering
        self._answer_count += 2 * int(np.count_nonzero(entering)) - len(entering)
        self.answer_epoch += 1

    def answer_set_mask(self, mask: np.ndarray) -> None:
        self.answer_mask[:] = mask
        self._answer_count = int(np.count_nonzero(self.answer_mask))
        self.answer_epoch += 1

    def answer_snapshot(self) -> frozenset[int]:
        return frozenset(np.flatnonzero(self.answer_mask).tolist())

    # ------------------------------------------------------------------
    # Tracked membership (RTP's X(t))
    # ------------------------------------------------------------------
    @property
    def tracked_size(self) -> int:
        return self._tracked_count

    def tracked_contains(self, stream_id: int) -> bool:
        return bool(self.tracked_mask[int(stream_id)])

    def tracked_add(self, stream_id: int) -> None:
        stream_id = int(stream_id)
        if not self.tracked_mask[stream_id]:
            self.tracked_mask[stream_id] = True
            self._tracked_count += 1

    def tracked_discard(self, stream_id: int) -> None:
        stream_id = int(stream_id)
        if self.tracked_mask[stream_id]:
            self.tracked_mask[stream_id] = False
            self._tracked_count -= 1

    def tracked_replace(self, members: Iterable[int]) -> None:
        self.tracked_mask[:] = membership_mask(members, self.n_streams)
        self._tracked_count = int(np.count_nonzero(self.tracked_mask))

    def tracked_ids(self) -> np.ndarray:
        return np.nonzero(self.tracked_mask)[0]

    def tracked_snapshot(self) -> frozenset[int]:
        return frozenset(np.flatnonzero(self.tracked_mask).tolist())

    def tracked_not_in_answer(self) -> np.ndarray:
        """Ids in ``X(t) - A(t)`` — RTP Case 2's replacement candidates."""
        return np.nonzero(self.tracked_mask & ~self.answer_mask)[0]

    # ------------------------------------------------------------------
    # Rank listeners
    # ------------------------------------------------------------------
    def add_listener(self, listener) -> None:
        """Register a rank view to be notified of value-plane writes."""
        if listener not in self._listeners:
            self._listeners.append(listener)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"StreamStateTable(n={self.n_streams}, known={self._known_count}, "
            f"|A|={self._answer_count}, |X|={self._tracked_count})"
        )


@dataclass(frozen=True)
class StateTableFactory:
    """A picklable ``n_streams -> StreamStateTable`` constructor.

    Hosts that create their table lazily (``Server``) or at assembly
    time (``ShardedServer``) take a factory rather than storage knobs,
    so one parameter threads any backing through every topology.  A
    frozen dataclass — not a closure — because durable deployments
    pickle the host graph in recovery snapshots.
    """

    storage: str = "ram"
    plane_dir: str | None = None

    def __call__(self, n_streams: int) -> StreamStateTable:
        return StreamStateTable(
            n_streams, storage=self.storage, plane_dir=self.plane_dir
        )
