"""Unit tests for the silencer pools' FIFO order."""

from repro.state.pools import SilencerPools


def test_fifo_order_preserved():
    pools = SilencerPools()
    pools.reset([3, 1, 2], [7, 5])
    assert pools.pop_fp() == 3
    assert pools.pop_fp() == 1
    pools.fp.append(9)
    assert list(pools.fp) == [2, 9]
    assert pools.pop_fn() == 7
    assert pools.n_plus == 2 and pools.n_minus == 1


def test_limbo_move_joins_the_back_of_the_fn_pool():
    pools = SilencerPools()
    pools.reset([0, 1], [2])
    moved = pools.pop_fp()
    pools.push_fn(moved)  # the FT-NRP limbo move: FP pool -> FN pool
    assert list(pools.fp) == [1] and list(pools.fn) == [2, moved]
    assert pools.pop_fn() == 2  # 2 leaves first (FIFO)
    assert list(pools.fn) == [moved]


def test_reset_replaces_both_pools():
    pools = SilencerPools()
    pools.reset([0], [1])
    pools.reset([2], [])
    assert list(pools.fp) == [2] and list(pools.fn) == []
