"""Repeated-index assignment: the later row wins.

numpy does not promise an order for ``plane[rows] = values`` when
*rows* repeats an index, yet three writers rely on one:
``Population.stage`` installs a chunk's values with one scatter,
``replay_columnar`` writes a chunk's reports into the value /
report-time / believed / answer planes the same way, time-ordered, so
that each stream keeps its last record, and ``Oracle.apply_many``
settles a checked run's true values so (``(m, 2)`` point rows on the
spatial stack).  This pins that order for the shapes those writers use:
1-D ``float64`` and ``bool`` planes (whole arrays and basic-slice views,
as aliased planes are), ``(n, 2)`` point matrices, contiguous and
strided ``int64`` / ``int32`` row arrays, sizes on both sides of
numpy's 8 192-element buffer.  The reference finds each row's last
occurrence without any scatter order.
"""

import numpy as np
import pytest

SIZES = [1, 2, 7, 100, 8191, 8193, 70_000]


def last_occurrence(rows: np.ndarray, n: int) -> np.ndarray:
    """For each row in ``[0, n)``, the position of its last occurrence in
    *rows* (``-1``: none), from a reversed first-occurrence search."""
    found, first = np.unique(rows[::-1], return_index=True)
    position = np.full(n, -1)
    position[found] = len(rows) - 1 - first
    return position


def _case(size, index_dtype, plane_dtype, seed):
    rng = np.random.default_rng(seed)
    n = max(1, size // 16)  # every row repeats ~16 times
    rows = rng.integers(0, n, size).astype(index_dtype)
    if plane_dtype is bool:
        values = rng.random(size) < 0.5
    else:
        values = rng.random(size)
    return n, rows, values


@pytest.mark.parametrize("plane_dtype", [np.float64, bool])
@pytest.mark.parametrize("index_dtype", [np.int64, np.int32])
@pytest.mark.parametrize("size", SIZES)
def test_later_rows_win(size, index_dtype, plane_dtype):
    n, rows, values = _case(size, index_dtype, plane_dtype, seed=size)
    position = last_occurrence(rows, n)
    written = position >= 0
    for layout in ("array", "view"):
        backing = np.zeros(n + 3, dtype=plane_dtype)
        plane = backing if layout == "array" else backing[2 : n + 2]
        plane[rows] = values
        assert (plane[:n][written] == values[position[written]]).all(), layout


@pytest.mark.parametrize("plane_dtype", [np.float64, bool])
@pytest.mark.parametrize("index_dtype", [np.int64, np.int32])
def test_later_rows_win_through_strided_rows(index_dtype, plane_dtype):
    """Rows and values gathered as every other entry of a longer array:
    a non-contiguous index array scatters in the same order."""
    n, rows, values = _case(20_000, index_dtype, plane_dtype, seed=3)
    rows, values = rows[::2], values[::2]
    assert not rows.flags.c_contiguous
    plane = np.zeros(n, dtype=plane_dtype)
    plane[rows] = values
    position = last_occurrence(np.ascontiguousarray(rows), n)
    written = position >= 0
    assert (plane[written] == values[position[written]]).all()


@pytest.mark.parametrize("index_dtype", [np.int64, np.int32])
@pytest.mark.parametrize("size", SIZES)
def test_later_rows_win_for_point_rows(size, index_dtype):
    """A ``(n, 2)`` matrix takes each repeated row's last ``(m, 2)`` row."""
    n, rows, _ = _case(size, index_dtype, np.float64, seed=size)
    points = np.random.default_rng(size).random((size, 2))
    position = last_occurrence(rows, n)
    written = position >= 0
    plane = np.zeros((n, 2))
    plane[rows] = points
    assert (plane[written] == points[position[written]]).all()
