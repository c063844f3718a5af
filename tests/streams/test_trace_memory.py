"""A trace costs its own bytes: building one peaks within 1.6x its arrays.

Each trace builder sorts its records once and permutes the columns one
at a time (``repro.state.runs.sort_columns``), so materializing never
holds an unsorted and a sorted copy of every column at once.  The
traced peak (numpy reports its buffers to ``tracemalloc``) is
deterministic, so the bound is a plain assertion.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.spatial.workloads import generate_moving_objects_trace
from repro.state.runs import previous_in_stream, sort_columns
from repro.streams.synthetic import generate_synthetic_trace
from repro.streams.trace import StreamTrace

#: Traced peak over the finished trace's array bytes.
BOUND = 1.6

_SCALAR = ("initial_values", "times", "stream_ids", "values")


def traced_peak(build):
    """``build()`` and the traced peak above what was live before it."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = build()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def array_bytes(trace, columns=_SCALAR) -> int:
    return sum(getattr(trace, column).nbytes for column in columns)


def test_synthetic_range_filter_trace():
    """The e2e ``range_filter`` trace (801 001 records, 19.3 MB)."""
    trace, peak = traced_peak(
        lambda: generate_synthetic_trace(n_streams=10_000, horizon=1600.0, seed=0)
    )
    assert trace.n_records == 801_001
    assert peak <= BOUND * array_bytes(trace)


@pytest.mark.parametrize("repeat", [False, True], ids=["distinct", "tied"])
def test_interleaved_populations(repeat):
    """Three populations interleaved by one :func:`sort_columns` over
    disjoint id ranges; repeating one ties every one of its times, which
    takes the stable sort's path."""
    parts = [
        generate_synthetic_trace(n_streams=n, horizon=400.0, seed=seed)
        for n, seed in ((3000, 1), (1000, 2), (2000, 3))
    ]
    if repeat:
        parts.append(parts[0])

    def merge():
        offsets = np.cumsum([0] + [part.n_streams for part in parts[:-1]])
        columns = [  # 32-bit ids until the sort is done; the trace widens them
            np.concatenate([part.times for part in parts]),
            np.concatenate(
                [(p.stream_ids + o).astype(np.int32) for p, o in zip(parts, offsets)]
            ),
            np.concatenate([part.values for part in parts]),
        ]
        sort_columns(columns)
        initial = np.concatenate([part.initial_values for part in parts])
        return StreamTrace(initial, *columns, horizon=400.0)

    merged, peak = traced_peak(merge)
    assert merged.n_records == sum(part.n_records for part in parts)
    assert peak <= BOUND * array_bytes(merged)


def test_moving_objects_trace():
    """~1M records.  The walk's temporaries are bounded by one block of
    objects, not by the trace: a trace of one block (2 000 objects,
    3.2 MB) peaks at ~2.5x, all of it that block's padded walk."""
    trace, peak = traced_peak(
        lambda: generate_moving_objects_trace(n_objects=20_000, horizon=1000.0)
    )
    columns = ("initial_values", "times", "stream_ids", "values")
    assert peak <= BOUND * array_bytes(trace, columns)


def test_predecessor_index_beside_the_trace():
    """The replay kernel's index is built beside the trace; with it the
    process still holds no more than the generator's bound."""
    trace = generate_synthetic_trace(n_streams=10_000, horizon=1600.0, seed=0)
    _, peak = traced_peak(lambda: previous_in_stream(trace.stream_ids))
    assert array_bytes(trace) + peak <= BOUND * array_bytes(trace)
