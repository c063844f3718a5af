"""Unit + property tests for value-evolution processes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streams.generators import (
    BoundedRandomWalk,
    RandomWalk,
)


class TestRandomWalk:
    def test_step_statistics(self):
        walk = RandomWalk(sigma=20.0)
        rng = np.random.default_rng(0)
        steps = np.array([walk.step(0.0, rng) for _ in range(4000)])
        assert abs(steps.mean()) < 1.5
        assert steps.std() == pytest.approx(20.0, rel=0.1)

    def test_vectorized_steps_match_walk_structure(self):
        walk = RandomWalk(sigma=5.0)
        rng = np.random.default_rng(1)
        values = walk.steps(100.0, 50, rng)
        assert len(values) == 50
        increments = np.diff(np.concatenate([[100.0], values]))
        assert abs(increments.std() - 5.0) < 2.0

    def test_zero_sigma_is_constant(self):
        walk = RandomWalk(sigma=0.0)
        rng = np.random.default_rng(2)
        assert walk.step(7.0, rng) == 7.0

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            RandomWalk(sigma=-1.0)

    def test_drift(self):
        walk = RandomWalk(sigma=0.0, mu=2.0)
        rng = np.random.default_rng(0)
        values = walk.steps(0.0, 5, rng)
        np.testing.assert_allclose(values, [2.0, 4.0, 6.0, 8.0, 10.0])


class TestBoundedRandomWalk:
    @given(
        st.floats(0.0, 1000.0),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=50)
    def test_values_stay_in_bounds(self, initial, seed):
        walk = BoundedRandomWalk(sigma=200.0, low=0.0, high=1000.0)
        rng = np.random.default_rng(seed)
        values = walk.steps(initial, 100, rng)
        assert np.all(values >= 0.0)
        assert np.all(values <= 1000.0)

    def test_reflection_mirrors_overshoot(self):
        walk = BoundedRandomWalk(sigma=0.0, low=0.0, high=10.0)
        assert walk._reflect(12.0) == 8.0
        assert walk._reflect(-3.0) == 3.0
        assert walk._reflect(5.0) == 5.0
        assert walk._reflect(25.0) == 5.0  # wraps a full period

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            BoundedRandomWalk(low=5.0, high=5.0)

    def test_vectorized_matches_scalar_reflection(self):
        walk = BoundedRandomWalk(sigma=50.0, low=0.0, high=100.0)
        rng = np.random.default_rng(3)
        values = walk.steps(50.0, 200, rng)
        assert np.all((values >= 0.0) & (values <= 100.0))
