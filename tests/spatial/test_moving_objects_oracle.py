"""The moving-objects generator draws the per-object loop's variates.

``generate_moving_objects_trace`` builds its records with the synthetic
generator's ``walk_records`` (DESIGN.md §19.1): arrival blocks, one
vectorized walk over ``(n, d)`` points, one sort.  The loop it replaced
lives here as the oracle; every spatial ledger in the repository depends
on the trace being the same, so the criterion is ``np.array_equal`` on
all four arrays.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim.rng import RandomStreams
from repro.spatial.workloads import MovingObjectsConfig, generate_moving_objects_trace


def reference_arrivals(rng, mean: float, horizon: float) -> np.ndarray:
    expected = max(8, int(horizon / mean * 1.3) + 8)
    times = np.cumsum(rng.exponential(mean, size=expected))
    while times[-1] < horizon:
        more = rng.exponential(mean, size=expected)
        times = np.concatenate([times, times[-1] + np.cumsum(more)])
    return times[times <= horizon]


def reference_reflect(path, low: float, high: float):
    span = high - low
    offset = np.mod(path - low, 2 * span)
    offset = np.where(offset > span, 2 * span - offset, offset)
    return low + offset


def reference_trace(config: MovingObjectsConfig):
    """One object at a time, as the generator was written first."""
    rng = RandomStreams(config.seed)
    position_rng = rng.get("initial-positions")
    arrival_rng = rng.get("report-times")
    step_rng = rng.get("steps")
    initial = position_rng.uniform(
        0.0, config.extent, size=(config.n_objects, config.dimension)
    )
    all_times, all_ids, all_points = [], [], []
    for object_id in range(config.n_objects):
        times = reference_arrivals(
            arrival_rng, config.mean_interarrival, config.horizon
        )
        if len(times) == 0:
            continue
        steps = step_rng.normal(
            0.0, config.sigma, size=(len(times), config.dimension)
        )
        path = initial[object_id] + np.cumsum(steps, axis=0)
        all_times.append(times)
        all_ids.append(np.full(len(times), object_id, dtype=np.int64))
        all_points.append(reference_reflect(path, 0.0, config.extent))
    if not all_times:
        return initial, np.empty(0), np.empty(0, np.int64), np.empty(
            (0, config.dimension)
        )
    times = np.concatenate(all_times)
    order = np.argsort(times, kind="stable")
    ids = np.concatenate(all_ids)[order]
    return initial, times[order], ids, np.concatenate(all_points)[order]


@pytest.mark.parametrize(
    "params",
    [
        dict(n_objects=200, horizon=300.0, seed=0),
        dict(n_objects=60, horizon=40.0, seed=3),
        dict(n_objects=50, dimension=3, horizon=1000.0, seed=4),
        dict(n_objects=40, dimension=1, horizon=60.0, sigma=150.0, seed=7),
        dict(n_objects=3000, horizon=30.0, seed=5),  # two blocks
        dict(n_objects=300, horizon=100.0, extent=50, seed=5),  # walls hit
        dict(n_objects=30, horizon=100.0, sigma=0.0, seed=2),
        dict(n_objects=7, horizon=1e-6, seed=2),  # no records
    ],
    ids=lambda params: "-".join(f"{k}{v:g}" for k, v in params.items()),
)
def test_block_walk_draws_the_object_loop(params):
    config = MovingObjectsConfig(**params)
    trace = generate_moving_objects_trace(config)
    got = (trace.initial_points, trace.times, trace.stream_ids, trace.points)
    for column, want in zip(got, reference_trace(config)):
        assert column.dtype == want.dtype
        assert column.shape == want.shape
        assert np.array_equal(column, want)
