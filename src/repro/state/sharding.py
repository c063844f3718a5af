"""Population sharding over the columnar state engine.

A sharded deployment partitions the stream population into contiguous
id ranges, one :class:`StreamStateTable` per shard, behind per-shard
servers.  Three pieces make that mechanically cheap:

* :func:`shard_ranges` — the balanced contiguous partition.  Contiguity
  matters twice: a shard table's columns can then be *numpy views* into
  one coordinator-level table (zero copies, and protocols that index the
  global columns directly keep working unchanged), and local row order
  equals global id order, so per-shard tie-breaking agrees with the
  library-wide ``(key, id)`` rule.
* :class:`StateShardView` — a :class:`StreamStateTable` whose columns
  alias a slice ``[lo, hi)`` of a parent table.  Shard servers write
  their probe replies and update deliveries through the view (local
  rows), which notifies only that shard's rank listeners; the
  coordinator and the protocols read the parent's global columns, which
  are the same memory.
* :class:`ShardedRankView` — the coordinator's rank order: per-shard
  :class:`~repro.state.rank.RankView` maintenance plus a k-way heap
  merge (:func:`merge_pair_lists`) of per-shard ``(key, id)`` leader
  lists.  Because every shard breaks ties by ascending id and the merge
  compares ``(key, global id)`` tuples, the merged order is *identical*
  to the unsharded ``RankView`` order over the full population — which
  is why sharding preserves rank-query ledger semantics.
"""

from __future__ import annotations

import heapq
import itertools
from bisect import bisect_right
from typing import Callable, Sequence

import numpy as np

from repro.state.rank import RankView
from repro.state.table import StreamStateTable


def shard_ranges(n_streams: int, n_shards: int) -> list[tuple[int, int]]:
    """Balanced contiguous partition of ``range(n_streams)``.

    The first ``n_streams % n_shards`` shards get one extra stream, so
    shard sizes differ by at most one.  Every stream belongs to exactly
    one shard and shard order follows id order.
    """
    n_streams = int(n_streams)
    n_shards = int(n_shards)
    if n_streams < 1:
        raise ValueError("n_streams must be >= 1")
    if not 1 <= n_shards <= n_streams:
        raise ValueError(
            f"n_shards must be in [1, {n_streams}], got {n_shards}"
        )
    base, extra = divmod(n_streams, n_shards)
    ranges = []
    lo = 0
    for shard in range(n_shards):
        hi = lo + base + (1 if shard < extra else 0)
        ranges.append((lo, hi))
        lo = hi
    return ranges


def id_column(stream_ids) -> np.ndarray:
    """*stream_ids* as an int64 column.  A ``range`` — how a broadcast
    carries "every row", which the control-plane kernels index as the
    basic slice it is — is materialized only here, for the consumers
    that need each id."""
    if isinstance(stream_ids, range):
        return np.arange(stream_ids.start, stream_ids.stop, dtype=np.int64)
    return np.asarray(stream_ids, dtype=np.int64)


def owner_runs(
    bounds: Sequence[int], stream_ids: np.ndarray | range
) -> list[tuple[int, int, int]]:
    """Split an id column into consecutive same-shard runs, in order:
    ``(shard index, start, stop)`` slices of *stream_ids*; *bounds* are
    the contiguous shards' ascending ``hi`` ids, so an id's owner is
    ``bisect_right(bounds, id)``.  Per-run processing in list order
    preserves the column's per-stream order, which is all a sharded
    control-plane batch has to keep.  A column whose extreme ids share
    an owner is one run, found without locating every id; an ascending
    ``range`` is cut at the shard bounds it spans."""
    if len(stream_ids) == 0:
        return []
    if isinstance(stream_ids, range):
        start, n = stream_ids.start, len(stream_ids)
        first = bisect_right(bounds, start)
        last = bisect_right(bounds, stream_ids[-1])
        edges = [0, *(hi - start for hi in bounds[first:last]), n]
        return [(first + i, a, b) for i, (a, b) in enumerate(zip(edges, edges[1:]))]
    first = bisect_right(bounds, stream_ids.min())
    if first == bisect_right(bounds, stream_ids.max()):
        return [(first, 0, len(stream_ids))]
    owners = np.searchsorted(bounds, stream_ids, side="right")
    cuts = np.nonzero(np.diff(owners))[0] + 1
    edges = [0, *cuts.tolist(), len(owners)]
    return [(int(owners[a]), a, b) for a, b in zip(edges[:-1], edges[1:])]


class StateShardView(StreamStateTable):
    """A shard's dense state table, aliasing ``parent[lo:hi]``.

    Every column is a numpy basic-slice view of the parent table, so a
    write through either object is visible to both instantly.  Row
    indices are *local* (0-based within the shard); callers translate
    with ``global_id - lo``.  Listeners registered on the view observe
    only this shard's value-plane writes — the basis of per-shard
    incremental rank maintenance.

    The parent's scalar counters (``known_count`` etc.) are *not*
    maintained by writes through a view; in a sharded deployment the
    value plane is written exclusively through the views and the
    membership planes exclusively through the parent, so each counter
    has exactly one consistent owner.

    The lazily-allocated planes — ``points`` (vector payloads), the
    ``containers`` object column, and the geometric bbox matrices — are
    exposed as *properties* that slice the parent on each access: the
    parent may allocate them after the views are built (the first point
    probe reply, the first region deploy), and a stored slice taken
    before allocation would alias nothing.  Allocation always happens on
    the parent (the ``_ensure_*`` overrides delegate up), so every
    sibling view sees the same memory.
    """

    def __init__(self, parent: StreamStateTable, lo: int, hi: int) -> None:
        lo, hi = int(lo), int(hi)
        if not 0 <= lo < hi <= parent.n_streams:
            raise ValueError(
                f"shard range [{lo}, {hi}) outside [0, {parent.n_streams})"
            )
        self.parent = parent
        self.lo = lo
        self.hi = hi
        self.n_streams = hi - lo
        # Value plane.
        self.values = parent.values[lo:hi]
        self.known = parent.known[lo:hi]
        # Constraint plane.
        self.lower = parent.lower[lo:hi]
        self.upper = parent.upper[lo:hi]
        self.inside = parent.inside[lo:hi]
        self.scannable = parent.scannable[lo:hi]
        self.geo_scannable = parent.geo_scannable[lo:hi]
        # Membership planes (owned by the parent; aliased for reads).
        self.answer_mask = parent.answer_mask[lo:hi]
        self.tracked_mask = parent.tracked_mask[lo:hi]
        self._answer_count = 0
        self._tracked_count = 0
        self._known_count = int(np.count_nonzero(self.known))
        self._listeners = []

    # -- lazily-allocated planes: slice the parent on each access ------
    def _parent_slice(self, column: np.ndarray | None) -> np.ndarray | None:
        return None if column is None else column[self.lo : self.hi]

    @property
    def points(self) -> np.ndarray | None:
        return self._parent_slice(self.parent.points)

    @property
    def containers(self) -> np.ndarray | None:
        return self._parent_slice(self.parent.containers)

    @property
    def geo_lower(self) -> np.ndarray | None:
        return self._parent_slice(self.parent.geo_lower)

    @property
    def geo_upper(self) -> np.ndarray | None:
        return self._parent_slice(self.parent.geo_upper)

    @property
    def geo_outer_lower(self) -> np.ndarray | None:
        return self._parent_slice(self.parent.geo_outer_lower)

    @property
    def geo_outer_upper(self) -> np.ndarray | None:
        return self._parent_slice(self.parent.geo_outer_upper)

    def _ensure_points(self, dimension: int) -> np.ndarray:
        self.parent._ensure_points(dimension)
        points = self.points
        assert points is not None
        return points

    def _ensure_containers(self) -> np.ndarray:
        self.parent._ensure_containers()
        containers = self.containers
        assert containers is not None
        return containers

    def _ensure_geometry(self, dimension: int) -> None:
        self.parent._ensure_geometry(dimension)

    def _note_constraint(self, rows=None) -> None:
        # The columns are the parent's memory, and the replay readers
        # read the parent's write log: rows in its coordinates.
        lo = self.lo
        self.parent._note_constraint(range(lo, self.hi) if rows is None else rows + lo)

    def __reduce__(self):
        """Pickle by re-aliasing, never by value.

        The default dataclass-style pickling would serialize each sliced
        column as an independent array copy, silently severing the
        aliasing invariant every sharded ledger-identity argument rests
        on.  Reconstructing through ``__init__`` re-slices whichever
        arrays the (memoized, shared) parent restored with; only the
        membership counters and rank listeners carry over as state.
        """
        state = {
            "_answer_count": self._answer_count,
            "_tracked_count": self._tracked_count,
            "_listeners": self._listeners,
        }
        return (type(self), (self.parent, self.lo, self.hi), state)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"StateShardView([{self.lo}, {self.hi}) of "
            f"n={self.parent.n_streams}, known={self._known_count})"
        )


def scatter_region_deploys(
    table: StreamStateTable,
    rows: np.ndarray,
    regions,
    dimension: int,
) -> None:
    """Vectorized mirror of a region-constraint batch into *table*'s
    containers column and geometric plane.

    Equivalent to storing each region in ``containers`` plus a
    per-stream :meth:`StreamStateTable.record_region_deploy` /
    :meth:`clear_region_filter`, but grouped by distinct region object
    so each region's quiescence boxes are computed once and scattered
    with one fancy-indexed assignment per plane.  Rows deployed twice
    in one batch keep only their last region (in-order semantics).

    Membership-belief columns (``inside``) are *not* written: in the
    shard transport they are worker-owned, exactly as the scalar
    coordinator mirror leaves beliefs to the workers.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if len(rows) == 0:
        return
    dimension = int(dimension)
    last: dict[int, int] = {}
    for position, row in enumerate(rows.tolist()):
        last[int(row)] = position
    keep = sorted(last.values())
    containers = table._ensure_containers()
    groups: dict[int, tuple[object, list[int]]] = {}
    for position in keep:
        region = regions[position]
        entry = groups.get(id(region))
        if entry is None:
            groups[id(region)] = (region, [position])
        else:
            entry[1].append(position)
    for region, positions in groups.values():
        idx = rows[np.asarray(positions, dtype=np.int64)]
        containers[idx] = region
        boxes = region.quiescence_bboxes(dimension)
        if boxes is None:
            table.geo_scannable[idx] = False
            if table.geo_lower is not None:
                table.geo_lower[idx] = np.inf
                table.geo_upper[idx] = -np.inf
                table.geo_outer_lower[idx] = -np.inf
                table.geo_outer_upper[idx] = np.inf
        else:
            table._ensure_geometry(dimension)
            inner_lo, inner_hi, outer_lo, outer_hi = boxes
            table.geo_lower[idx] = inner_lo
            table.geo_upper[idx] = inner_hi
            table.geo_outer_lower[idx] = outer_lo
            table.geo_outer_upper[idx] = outer_hi
            table.geo_scannable[idx] = True
    table._note_constraint(rows)


def merge_pair_lists(
    pair_lists: Sequence[Sequence[tuple[float, int]]],
    count: int | None = None,
) -> list[int]:
    """K-way heap merge of best-first ``(key, id)`` lists; ids only.

    Each input list must be sorted ascending by ``(key, id)`` (the
    output contract of :meth:`RankView.leader_pairs`).  Tuple comparison
    breaks key ties by id, so the merged prefix equals the unsharded
    order's prefix.
    """
    merged = heapq.merge(*pair_lists)
    if count is not None:
        merged = itertools.islice(merged, int(count))
    return [stream_id for _, stream_id in merged]


class ShardedRankView:
    """The coordinator's total order over per-shard :class:`RankView`\\ s.

    Duck-types the :class:`RankView` read API (``order``, ``order_ids``, ``leaders``,
    ``key_of``, ``invalidate``), so protocols built against
    ``server.rank_view(...)`` run unchanged on a sharded topology.  Each
    read asks every shard for its (incrementally maintained) local
    prefix and heap-merges: ``leaders(c)`` costs each shard a partial
    selection of at most ``c`` rows plus an ``O(S · c log S)`` merge,
    never a global sort — the scale-out primitive the ROADMAP targets
    (per-shard ``leaders(k+1)`` + k-way merge at the coordinator).
    """

    def __init__(
        self,
        shard_tables: Sequence[StateShardView],
        distance_array: Callable[[np.ndarray], np.ndarray],
    ) -> None:
        self._views = [
            RankView(table, distance_array) for table in shard_tables
        ]
        self._offsets = [table.lo for table in shard_tables]
        self._tables = list(shard_tables)
        self._distance_array = distance_array

    def _shifted(self, view_index: int, pairs) -> list[tuple[float, int]]:
        offset = self._offsets[view_index]
        if offset == 0:
            return pairs
        return [(key, offset + stream_id) for key, stream_id in pairs]

    def order_ids(self) -> np.ndarray:
        """All known stream ids as an int64 column, best-first under
        ``(distance, id)``.

        A merge, not a re-sort: each shard's order is sorted by ``(key,
        id)`` and shard id ranges ascend, so a *stable* sort of the
        concatenated keys (numpy's merges the sorted runs it finds)
        breaks ties by ascending id — the total order the pair merge of
        :meth:`leaders` yields, without a Python tuple per stream.
        """
        parts = [view.order_arrays() for view in self._views]
        ids = np.concatenate(
            [part[0] + offset for part, offset in zip(parts, self._offsets)]
        )
        keys = np.concatenate([part[1] for part in parts])
        return ids[np.argsort(keys, kind="stable")]

    def order(self) -> list[int]:
        """:meth:`order_ids` as a list of Python ints."""
        return self.order_ids().tolist()

    def leaders(self, count: int) -> list[int]:
        """The *count* globally best ids via per-shard partial selection."""
        count = int(count)
        if count <= 0:
            return []
        return merge_pair_lists(
            [
                self._shifted(i, view.leader_pairs(count))
                for i, view in enumerate(self._views)
            ],
            count,
        )

    def key_of(self, stream_id: int) -> float:
        """The current ranking key of one stream (recomputed)."""
        stream_id = int(stream_id)
        for table, view in zip(self._tables, self._views):
            if table.lo <= stream_id < table.hi:
                return view.key_of(stream_id - table.lo)
        raise IndexError(f"stream {stream_id} not in any shard")

    def invalidate(self) -> None:
        for view in self._views:
            view.invalidate()

    @property
    def is_synced(self) -> bool:
        return all(view.is_synced for view in self._views)

    @property
    def n_shards(self) -> int:
        return len(self._views)


def validate_shard_alignment(
    parent: StreamStateTable, shards: Sequence[StateShardView]
) -> None:
    """Sanity check: the shard views tile the parent exactly once.

    Cheap (pure metadata) and called once per sharded assembly; guards
    against a future refactor silently breaking the aliasing invariant
    every ledger-identity argument rests on.
    """
    covered = 0
    expected_lo = 0
    for shard in shards:
        if shard.parent is not parent:
            raise ValueError("shard view bound to a different parent table")
        if shard.lo != expected_lo:
            raise ValueError(
                f"shard ranges must be contiguous: expected lo={expected_lo}, "
                f"got {shard.lo}"
            )
        if shard.values.base is not parent.values:
            raise ValueError("shard values column does not alias the parent")
        covered += shard.n_streams
        expected_lo = shard.hi
    if covered != parent.n_streams:
        raise ValueError(
            f"shards cover {covered} of {parent.n_streams} streams"
        )
