"""Value-evolution processes for stream data.

The synthetic model of Section 6.2 evolves each stream as a Gaussian
random walk; these classes factor that evolution out so examples can plug
in alternatives (bounded walks for physical quantities like temperature,
mean-reverting walks for load metrics) without touching the trace
generator.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np


class ValueProcess(ABC):
    """Generates successive values of a single stream."""

    @abstractmethod
    def step(self, current: float, rng: np.random.Generator) -> float:
        """Return the next value given the *current* one."""

    def steps(
        self, initial: float, count: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Convenience: iterate :meth:`step` *count* times from *initial*."""
        out = np.empty(count, dtype=np.float64)
        value = initial
        for i in range(count):
            value = self.step(value, rng)
            out[i] = value
        return out

    def walks(
        self, initials: np.ndarray, counts: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Stream ``i``'s ``counts[i]`` :meth:`steps` from ``initials[i]``
        for every stream, drawn and concatenated in stream order."""
        parts = [
            self.steps(float(initial), int(count), rng)
            for initial, count in zip(initials, counts)
            if count
        ]
        return np.concatenate(parts) if parts else np.empty(0)


class RandomWalk(ValueProcess):
    """Unbounded Gaussian random walk: ``V_next = V + N(mu, sigma)``.

    With ``mu = 0`` and ``sigma = 20`` this is exactly the paper's
    Section 6.2 model.
    """

    def __init__(self, sigma: float = 20.0, mu: float = 0.0) -> None:
        if sigma < 0:
            raise ValueError("sigma must be non-negative")
        self.sigma = float(sigma)
        self.mu = float(mu)

    def step(self, current: float, rng: np.random.Generator) -> float:
        return current + rng.normal(self.mu, self.sigma)

    def steps(
        self, initial: float, count: int, rng: np.random.Generator
    ) -> np.ndarray:
        # Vectorized: a walk is a cumulative sum of i.i.d. steps.
        return self.walks(np.array([initial]), np.array([count]), rng)

    def walks(
        self, initials: np.ndarray, counts: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        # One draw takes the per-stream calls' variates; a zero-padded
        # row-wise cumsum is each stream's own (DESIGN.md §19).  Rows of
        # *initials* may be points: a step then draws one per coordinate.
        shape = initials.shape[1:]
        increments = rng.normal(self.mu, self.sigma, (int(counts.sum()), *shape))
        mask = np.arange(counts.max(initial=0)) < counts[:, None]
        padded = np.zeros(mask.shape + shape)
        padded[mask] = increments
        del increments
        np.cumsum(padded, axis=1, out=padded)
        padded += initials[:, None]
        return padded[mask]


class BoundedRandomWalk(RandomWalk):
    """Gaussian random walk reflected into ``[low, high]``.

    Keeps long simulations inside a fixed data domain so range-query
    selectivity stays stationary — useful for examples and for stress
    tests where the unbounded walk would drift every stream out of the
    query range.
    """

    def __init__(
        self, sigma: float = 20.0, low: float = 0.0, high: float = 1000.0
    ) -> None:
        super().__init__(sigma)
        if low >= high:
            raise ValueError("low must be < high")
        self.low = float(low)
        self.high = float(high)

    def _reflect(self, value: float) -> float:
        span = self.high - self.low
        # Fold the value into [low, low + 2*span) then mirror the top half.
        offset = (value - self.low) % (2 * span)
        if offset < 0:
            offset += 2 * span
        if offset > span:
            offset = 2 * span - offset
        return self.low + offset

    def step(self, current: float, rng: np.random.Generator) -> float:
        return self._reflect(current + rng.normal(0.0, self.sigma))

    def walks(
        self, initials: np.ndarray, counts: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        # The unbounded walk's values, each folded as :meth:`_reflect`.
        span = self.high - self.low
        offset = np.mod(super().walks(initials, counts, rng) - self.low, 2 * span)
        offset = np.where(offset > span, 2 * span - offset, offset)
        return self.low + offset
