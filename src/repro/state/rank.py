"""Incremental rank maintenance over a :class:`StreamStateTable`.

The rank-based protocols all consult the same total order — stream ids
sorted by ``(distance(last-known value), id)`` — but the seed re-derived
it with a full python ``sorted()`` (one key call per element) on every
recomputation.  :class:`RankView` maintains that order incrementally:

* **Bulk rebuilds** (after a full collection, when every key changed)
  compute the whole distance column vectorized and order it with one
  stable C-level argsort — or, when only the ``count`` best are needed,
  with a heap-style partial selection (``argpartition``) that never
  materializes the full order.
* **Dirty-region repair** (after a handful of point updates) removes the
  dirty rows from the maintained order, re-keys just those rows, and
  merges the small sorted batch back with ``searchsorted`` — O(n + d log
  d) instead of O(n log n) with python-level keys.

Ties are broken by ascending stream id everywhere, matching
:mod:`repro.queries.rank`; the distance callable must be the query's
``distance_array`` (bitwise-identical per element to ``distance``), so a
view-produced order equals the legacy ``sorted()`` order exactly.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.state.runs import stable_key_order
from repro.state.table import StreamStateTable, membership_mask

#: Full rebuild once more than 1/_REBUILD_DIVISOR of the rows are dirty
#: (point repair only beats a vectorized re-sort for small dirty batches).
_REBUILD_DIVISOR = 8


class RankView:
    """A maintained ``(distance, id)`` total order over known streams."""

    def __init__(
        self,
        table: StreamStateTable,
        distance_array: Callable[[np.ndarray], np.ndarray],
    ) -> None:
        self.table = table
        self._distance_array = distance_array
        self._ids: np.ndarray | None = None
        self._keys: np.ndarray | None = None
        self._dirty: set[int] = set()
        self._all_dirty = True
        self._synced_known = 0
        table.add_listener(self)

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def note(self, stream_id: int) -> None:
        """Table callback: one row's payload changed."""
        if self._all_dirty:
            return
        self._dirty.add(int(stream_id))
        if len(self._dirty) * _REBUILD_DIVISOR >= self.table.n_streams:
            self.invalidate()

    def invalidate(self) -> None:
        """Mark the whole order stale (next read rebuilds in bulk)."""
        self._all_dirty = True
        self._dirty.clear()

    @property
    def is_synced(self) -> bool:
        return (
            not self._all_dirty
            and not self._dirty
            and self._ids is not None
            and self._synced_known == self.table.known_count
        )

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def order_ids(self) -> np.ndarray:
        """All known stream ids as an int64 column, best-first under
        ``(distance, id)`` (read-only: the maintained order itself)."""
        return self.order_arrays()[0]

    def order(self) -> list[int]:
        """:meth:`order_ids` as a list of Python ints."""
        return self.order_ids().tolist()

    def leaders(self, count: int) -> list[int]:
        """The *count* best stream ids, best-first (deterministic ties).

        When the whole order is stale this uses heap-style partial
        selection (``argpartition``) and leaves the full order unbuilt —
        the recompute paths of ZT-RP / FT-RP only ever need the best
        ``k + 1`` rows of a freshly collected population.
        """
        count = int(count)
        if count <= 0:
            return []
        if self.is_synced or self._dirty:
            self._repair()
            assert self._ids is not None
            return [int(i) for i in self._ids[:count]]
        ids, _ = self._partial_selection(count)
        return [int(i) for i in ids]

    def leader_pairs(self, count: int) -> list[tuple[float, int]]:
        """The *count* best ``(key, id)`` pairs, best-first.

        The pair form feeds the sharded coordinator's k-way merge
        (:class:`~repro.state.sharding.ShardedRankView`): tuples from
        several shards compare by ``(key, id)``, which is exactly the
        library-wide tie rule, so a heap merge of per-shard pair lists
        reproduces the unsharded order.
        """
        count = int(count)
        if count <= 0:
            return []
        if self.is_synced or self._dirty:
            self._repair()
            assert self._ids is not None and self._keys is not None
            return [
                (float(k), int(i))
                for k, i in zip(self._keys[:count], self._ids[:count])
            ]
        ids, keys = self._partial_selection(count)
        return [(float(k), int(i)) for k, i in zip(keys, ids)]

    def order_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The whole order as ``(ids, keys)`` columns, best-first (the
        sharded coordinator's full-order merge sorts them columnar)."""
        self._repair()
        assert self._ids is not None and self._keys is not None
        return self._ids, self._keys

    def key_of(self, stream_id: int) -> float:
        """The current ranking key of one stream (recomputed, not cached)."""
        payload = self.table.payload_array()[int(stream_id)]
        return float(self._distance_array(np.asarray(payload)[None])[0])

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def _known_base(self) -> np.ndarray | None:
        """Known-row ids, or ``None`` when every row is known."""
        table = self.table
        if table.known_count == table.n_streams:
            return None
        return table.known_ids()

    def _keys_for(self, base: np.ndarray | None) -> np.ndarray:
        payloads = self.table.payload_array()
        if base is not None:
            payloads = payloads[base]
        return np.asarray(self._distance_array(payloads), dtype=np.float64)

    def _rebuild(self) -> None:
        base = self._known_base()
        keys = self._keys_for(base)
        # A stable argsort on the key column breaks ties by position,
        # which is ascending stream id — the library-wide convention.
        order = stable_key_order(keys)
        self._ids = order if base is None else base[order]
        self._keys = keys[order]
        self._dirty.clear()
        self._all_dirty = False
        self._synced_known = self.table.known_count

    def _repair(self) -> None:
        if (
            self._all_dirty
            or self._ids is None
            or self._synced_known != self.table.known_count
        ):
            self._rebuild()
            return
        if not self._dirty:
            return
        dirty = np.fromiter(
            sorted(self._dirty), dtype=np.int64, count=len(self._dirty)
        )
        # Dirty rows are rows: a row mark, not a sort-based ``isin``.
        keep = ~membership_mask(dirty, self.table.n_streams)[self._ids]
        kept_ids = self._ids[keep]
        kept_keys = self._keys[keep]
        dirty = dirty[self.table.known[dirty]]
        batch_keys = self._keys_for(dirty)
        # The dirty batch is id-ascending already; a stable sort on keys
        # therefore breaks batch-internal ties by id.
        batch_order = np.argsort(batch_keys, kind="stable")
        b_ids = dirty[batch_order]
        b_keys = batch_keys[batch_order]
        positions = np.searchsorted(kept_keys, b_keys, side="left")
        # A batch key equal to kept keys goes past the kept ids of that
        # run that rank before it (the run is id-ascending).
        run_ends = np.searchsorted(kept_keys, b_keys, side="right")
        for index in np.nonzero(run_ends > positions)[0].tolist():
            start, end = positions[index], run_ends[index]
            positions[index] += np.searchsorted(kept_ids[start:end], b_ids[index])
        # Batch row i lands before kept row positions[i], behind the i
        # batch rows ahead of it; the kept rows fill the other slots.
        slots = positions + np.arange(len(b_ids))
        kept_slots = np.ones(len(kept_ids) + len(b_ids), dtype=bool)
        kept_slots[slots] = False
        self._ids = np.empty(len(kept_slots), dtype=np.int64)
        self._ids[slots] = b_ids
        self._ids[kept_slots] = kept_ids
        self._keys = np.empty(len(kept_slots), dtype=np.float64)
        self._keys[slots] = b_keys
        self._keys[kept_slots] = kept_keys
        self._dirty.clear()

    def _partial_selection(
        self, count: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """The *count* best rows as ``(ids, keys)`` without a full order."""
        base = self._known_base()
        keys = self._keys_for(base)
        n = len(keys)
        if count >= n:
            order = np.argsort(keys, kind="stable")
        else:
            # Heap-style partial selection: partition for the count-th
            # smallest key, then order only the candidate prefix (plus
            # any rows tied at the threshold) by (key, id).
            part = np.argpartition(keys, count - 1)[:count]
            threshold = keys[part].max()
            candidates = np.nonzero(keys <= threshold)[0]
            order = candidates[
                np.argsort(keys[candidates], kind="stable")
            ][:count]
        order = order[:count]
        best_keys = keys[order]
        if base is not None:
            order = base[order]
        return order, best_keys
