"""The columnar stream-state engine (see DESIGN.md Section 5).

Every protocol in this repo reasons over the same server-side state —
last-reported values, deployed filter bounds, silencer pools, answer
membership — yet the seed kept that state in per-protocol dicts and
re-derived rank order with full ``sorted()`` scans on every
recomputation.  This package is the one vectorized state layer they all
share:

* :class:`StreamStateTable` — a numpy-backed column store, one row per
  stream: last-known payload, report time, deployed filter bounds,
  believed membership, silencer flags, and the answer / tracked
  membership masks.
* :class:`RankView` — an incremental ``(distance, id)`` total order over
  a table, maintained with partial (heap-style) selection and
  dirty-region repair instead of full re-sorts.
* :class:`SilencerPools` — the FIFO false-positive / false-negative
  silencer pools of FT-NRP / FT-RP, mirrored into the table's silencer
  flag column.

The table is also the single source of truth for deployed constraints:
the sources write their filter state through to it (``bind_state`` of a
membership strategy, or of the columnar scalar population), and the
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
from repro.state.table import (
    SILENCER_FN,
    SILENCER_FP,
    SILENCER_NONE,
    StreamStateTable,
)

__all__ = [
    "RankView",
    "SILENCER_FN",
    "SILENCER_FP",
    "SILENCER_NONE",
    "ShardedRankView",
    "SilencerPools",
    "StateShardView",
    "StreamStateTable",
    "merge_pair_lists",
    "shard_ranges",
]
