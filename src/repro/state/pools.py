"""FIFO silencer pools mirrored into the state table's flag column.

FT-NRP and FT-RP hand out silencing filters during initialization and
spend them in ``Fix_Error`` in first-in-first-out order.  The pools are
order-sensitive (a deque each), but set-membership questions — "is this
stream currently silenced, and which way?" — belong in the shared state
table so other layers (introspection, vectorized counts) can answer them
columnar.  :class:`SilencerPools` keeps the two representations in sync.

A pools object works unbound (``table=None``) for protocols constructed
outside a server context; binding is idempotent and re-syncs the flags.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

import numpy as np

from repro.state.table import (
    SILENCER_FN,
    SILENCER_FP,
    SILENCER_NONE,
    StreamStateTable,
)


class SilencerPools:
    """The live ``n+`` / ``n-`` silencer pools of Figure 7."""

    def __init__(self, table: StreamStateTable | None = None) -> None:
        self._table = table
        self.fp: deque[int] = deque()  # silenced, believed inside
        self.fn: deque[int] = deque()  # silenced, believed outside

    def bind(self, table: StreamStateTable | None) -> None:
        """Attach (or swap) the flag column and re-sync it."""
        self._table = table
        self._sync_flags()

    def _sync_flags(self) -> None:
        if self._table is None:
            return
        self._table.clear_silencers()
        self._table.silencer[list(self.fp)] = SILENCER_FP
        self._table.silencer[list(self.fn)] = SILENCER_FN

    # ------------------------------------------------------------------
    # Mutation (all paths keep the flag column consistent)
    # ------------------------------------------------------------------
    def reset(self, fp_ids: Iterable[int], fn_ids: Iterable[int]) -> None:
        """Swap in freshly selected pools (a (re)initialization)."""
        self.fp = deque(np.asarray(fp_ids, dtype=np.int64).tolist())
        self.fn = deque(np.asarray(fn_ids, dtype=np.int64).tolist())
        self._sync_flags()

    def pop_fp(self) -> int:
        stream_id = self.fp.popleft()
        if self._table is not None:
            self._table.set_silencer(stream_id, SILENCER_NONE)
        return stream_id

    def pop_fn(self) -> int:
        stream_id = self.fn.popleft()
        if self._table is not None:
            self._table.set_silencer(stream_id, SILENCER_NONE)
        return stream_id

    def push_fn(self, stream_id: int) -> None:
        stream_id = int(stream_id)
        self.fn.append(stream_id)
        if self._table is not None:
            self._table.set_silencer(stream_id, SILENCER_FN)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_plus(self) -> int:
        """Remaining false-positive filters (paper's ``n+``)."""
        return len(self.fp)

    @property
    def n_minus(self) -> int:
        """Remaining false-negative filters (paper's ``n-``)."""
        return len(self.fn)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"SilencerPools(fp={list(self.fp)}, fn={list(self.fn)})"
