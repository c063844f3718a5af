"""The columnar stream-state engine (see DESIGN.md Section 5).

Every protocol in this repo reasons over the same server-side state —
last-reported values, deployed filter bounds, silencer pools, answer
membership — yet the seed kept that state in per-protocol dicts and
re-derived rank order with full ``sorted()`` scans on every
recomputation.  This package is the one vectorized state layer they all
share:

* :class:`StreamStateTable` — a numpy-backed column store, one row per
  stream: last-known payload, deployed filter bounds (a silenced row's
  are its silencer), believed membership, and the answer / tracked
  membership masks.
* :class:`RankView` — an incremental ``(distance, id)`` total order over
  a table, maintained with partial (heap-style) selection and
  dirty-region repair instead of full re-sorts.
* :class:`SilencerPools` — the FIFO false-positive / false-negative
  silencer pools of FT-NRP / FT-RP.

The table is also the single source of truth for deployed constraints:
the sources write their filter state through to it (a population's
``bind_state``, ``repro.runtime.source``), and the
batched replay fast path reads those columns directly
(:mod:`repro.runtime.session`).
"""

from repro.state.pools import SilencerPools
from repro.state.rank import RankView
from repro.state.sharding import (
    ShardedRankView,
    StateShardView,
    merge_pair_lists,
    shard_ranges,
)
from repro.state.table import StreamStateTable

__all__ = [
    "RankView",
    "ShardedRankView",
    "SilencerPools",
    "StateShardView",
    "StreamStateTable",
    "merge_pair_lists",
    "shard_ranges",
]
