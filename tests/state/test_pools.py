"""Unit tests for the silencer pools and their flag mirroring."""

from repro.state.pools import SilencerPools
from repro.state.table import (
    SILENCER_FN,
    SILENCER_FP,
    SILENCER_NONE,
    StreamStateTable,
)


def test_fifo_order_preserved():
    pools = SilencerPools()
    pools.reset([3, 1, 2], [7, 5])
    assert pools.pop_fp() == 3
    assert pools.pop_fp() == 1
    pools.fp.append(9)
    assert list(pools.fp) == [2, 9]
    assert pools.pop_fn() == 7
    assert pools.n_plus == 2 and pools.n_minus == 1


def test_flags_mirror_into_table():
    table = StreamStateTable(6)
    pools = SilencerPools(table)
    pools.reset([0, 1], [2])
    assert table.silencer[0] == SILENCER_FP
    assert table.silencer[2] == SILENCER_FN
    assert table.silencer[3] == SILENCER_NONE
    moved = pools.pop_fp()
    pools.push_fn(moved)  # the FT-NRP limbo move: FP pool -> FN pool
    assert table.silencer[moved] == SILENCER_FN
    pools.pop_fn()  # 2 leaves first (FIFO)
    assert table.silencer[2] == SILENCER_NONE
    assert table.silencer[moved] == SILENCER_FN


def test_reset_clears_stale_flags():
    table = StreamStateTable(4)
    pools = SilencerPools(table)
    pools.reset([0], [1])
    pools.reset([2], [])
    assert table.silencer[0] == SILENCER_NONE
    assert table.silencer[1] == SILENCER_NONE
    assert table.silencer[2] == SILENCER_FP


def test_late_binding_syncs_flags():
    pools = SilencerPools()
    pools.reset([1], [3])
    table = StreamStateTable(5)
    pools.bind(table)
    assert table.silencer[1] == SILENCER_FP
    assert table.silencer[3] == SILENCER_FN
