"""Per-stream geometry of a record array: grouping and predecessors.

A source reports iff its filter membership flips between two consecutive
values of the *same stream* (DESIGN.md §9), so what replay needs from a
record array is its per-stream shape.  Pure array functions — no
simulation state, no tables — each property-tested against a scalar
oracle (``tests/state/test_runs.py``).
"""

from __future__ import annotations

import numpy as np


def stable_id_order(stream_ids) -> np.ndarray:
    """``np.argsort(stream_ids, kind="stable")``, by radix.

    numpy radix-sorts 16-bit integers only (801 001 ids: 9 ms against
    85 ms as int64), so non-negative ids take one ``uint16`` pass below
    2**16, a low-half then high-half pass below 2**32 (LSD, each pass
    stable), and the plain stable ``argsort`` beyond.
    """
    ids = np.asarray(stream_ids)
    if ids.size and ids.dtype.kind in "iu" and ids.min() >= 0:
        top = int(ids.max())
        if top < 1 << 16:
            return np.argsort(ids.astype(np.uint16), kind="stable")
        if top < 1 << 32:
            low = np.argsort((ids & 0xFFFF).astype(np.uint16), kind="stable")
            high = (ids >> 16).astype(np.uint16)[low]
            return low[np.argsort(high, kind="stable")]
    return np.argsort(ids, kind="stable")


def stable_key_order(keys) -> np.ndarray:
    """``np.argsort(keys, kind="stable")``: distinct keys have one order,
    which the default sort finds ~4.5x faster (1M float64); only equal
    keys or a NaN need the stable sort's position rule."""
    return sort_columns([np.asarray(keys)])


def sort_columns(columns: list, counts=None) -> np.ndarray | None:
    """Stable-sort the parallel record *columns* by the first, in the list.

    The keys reuse the tie check's gather; the rest are permuted one at a
    time, each source dropped before the next is gathered, so a caller
    holding no other reference peaks at its columns plus the order, the
    sorted keys and one column (DESIGN.md §19.1).  Returns the order or,
    given *counts* (records listed by stream, ``counts[s]`` of stream
    ``s``), appends their sorted ``int64`` stream ids instead.
    """
    keys = columns[0]
    order = np.argsort(keys)
    ordered = keys[order]
    if not (ordered[1:] > ordered[:-1]).all():  # a tie or a NaN
        del order, ordered
        order = np.argsort(keys, kind="stable")
        ordered = keys[order]
    columns[0] = ordered
    del keys, ordered
    for i in range(1, len(columns)):
        columns[i] = columns[i][order]
    if counts is None:
        return order
    ids = np.repeat(np.arange(len(counts), dtype=np.int32), counts)[order]
    del order
    columns.append(ids.astype(np.int64))


def previous_in_stream(stream_ids) -> np.ndarray:
    """``prev[j]``: the largest ``i < j`` with ``stream_ids[i] ==
    stream_ids[j]``, else ``-1``.

    One stable grouping plus one shifted scatter: in grouped order a
    record's predecessor is its left neighbour, except at a run's first.
    ``prev[:n]`` is the index of the first ``n`` records and ``prev[a:b]
    - a`` that of the slice ``[a, b)``, predecessors below ``a`` coming
    out negative.  32-bit below 2**31 records: it lives with its trace.
    """
    ids = np.asarray(stream_ids)
    n = len(ids)
    dtype = np.int32 if n < 1 << 31 else np.int64
    order = stable_id_order(ids).astype(dtype, copy=False)
    prev = np.full(n, -1, dtype=dtype)
    prev[order[1:]] = order[:-1]
    # A run starts at a prefix sum of the id counts, when that table is
    # no longer than the records; other ids compare grouped neighbours.
    if np.can_cast(ids.dtype, np.intp) and n and 0 <= ids.min() and ids.max() <= n:
        firsts = order[np.cumsum(np.bincount(ids))[:-1]]
    else:
        grouped = ids[order]
        firsts = order[1:][grouped[1:] != grouped[:-1]]
    prev[firsts] = -1
    return prev
