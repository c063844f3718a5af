"""Tests for the moving-objects workload: a :class:`StreamTrace` of
``(n, d)`` / ``(m, d)`` points (its container is tested with the scalar
trace, parametrised over both, in ``tests/streams/test_trace.py``)."""

import numpy as np
import pytest

from repro.spatial.workloads import (
    MovingObjectsConfig,
    generate_moving_objects_trace,
)
from repro.streams.trace import StreamTrace


class TestMovingObjects:
    def test_deterministic(self):
        config = MovingObjectsConfig(n_objects=20, horizon=100.0, seed=4)
        a = generate_moving_objects_trace(config)
        b = generate_moving_objects_trace(config)
        assert type(a) is StreamTrace
        assert a.initial_values.shape == (20, 2)
        assert a.values.shape == (a.n_records, 2)
        np.testing.assert_array_equal(a.values, b.values)

    def test_positions_stay_in_extent(self):
        trace = generate_moving_objects_trace(
            MovingObjectsConfig(
                n_objects=30, horizon=300.0, sigma=150.0, extent=1000.0, seed=1
            )
        )
        assert np.all(trace.values >= 0.0)
        assert np.all(trace.values <= 1000.0)
        assert np.all(trace.initial_values >= 0.0)
        assert np.all(trace.initial_values <= 1000.0)

    def test_dimension_parameter(self):
        trace = generate_moving_objects_trace(
            MovingObjectsConfig(n_objects=5, dimension=3, horizon=50.0)
        )
        assert trace.initial_values.shape == (5, 3)
        assert trace.values.shape[1] == 3

    def test_record_rate(self):
        config = MovingObjectsConfig(
            n_objects=50, horizon=400.0, mean_interarrival=20.0, seed=2
        )
        trace = generate_moving_objects_trace(config)
        expected = 50 * 400.0 / 20.0
        assert expected * 0.85 < trace.n_records < expected * 1.15

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            MovingObjectsConfig(n_objects=0)
        with pytest.raises(ValueError):
            MovingObjectsConfig(dimension=0)
        with pytest.raises(ValueError):
            MovingObjectsConfig(sigma=-1.0)

    def test_override_kwargs(self):
        trace = generate_moving_objects_trace(
            MovingObjectsConfig(n_objects=5, horizon=50.0), n_objects=7
        )
        assert trace.n_streams == 7
