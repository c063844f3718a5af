"""FIFO silencer pools.

FT-NRP and FT-RP hand out silencing filters during initialization and
spend them in ``Fix_Error`` in first-in-first-out order, so each pool
is a deque.  The pools are the one record of that order; which way a
row is silenced is its deployed constraint — ``[-inf, +inf]`` (false
positive) or ``[+inf, +inf]`` (false negative) in the state table's
bounds — and no plane copies either fact (DESIGN.md §21).
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

import numpy as np


class SilencerPools:
    """The live ``n+`` / ``n-`` silencer pools of Figure 7."""

    def __init__(self) -> None:
        self.fp: deque[int] = deque()  # silenced, believed inside
        self.fn: deque[int] = deque()  # silenced, believed outside

    def reset(self, fp_ids: Iterable[int], fn_ids: Iterable[int]) -> None:
        """Swap in freshly selected pools (a (re)initialization)."""
        self.fp = deque(np.asarray(fp_ids, dtype=np.int64).tolist())
        self.fn = deque(np.asarray(fn_ids, dtype=np.int64).tolist())

    def pop_fp(self) -> int:
        return self.fp.popleft()

    def pop_fn(self) -> int:
        return self.fn.popleft()

    def push_fn(self, stream_id: int) -> None:
        self.fn.append(int(stream_id))

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
