"""Heuristics for placing false-positive / false-negative filters.

Section 6.2 (Figure 14) compares two placements of the silencing filters
FT-NRP hands out during initialization:

* **random** — candidates drawn uniformly;
* **boundary-nearest** — candidates whose values lie closest to the
  boundary of the bound the filters guard (its ``boundary_distance``),
  i.e. the streams most likely to cross it soon.
  Silencing exactly those streams absorbs the most would-be updates,
  which is why the paper finds it dominates random selection.

A heuristic returns candidates in *preference order*; protocols take the
first ``count`` for silencing and also use the order when ``Fix_Error``
needs "a stream with a false-positive filter".
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np


class SelectionHeuristic(ABC):
    """Orders silencing-filter candidates by preference."""

    #: Short name for results tables.
    name: str = "abstract"

    @abstractmethod
    def order(self, candidates: dict, bound) -> list[int]:
        """Return candidate ids, most-preferred first.

        Parameters
        ----------
        candidates:
            Mapping of stream id to its current value (or point).
        bound:
            The bound value the filters guard: the query range, or the
            k-NN bound ``R`` (a filter constraint or a region).
        """

    def select(self, candidates: dict, count: int, bound) -> list[int]:
        """The *count* most-preferred candidates."""
        if count < 0:
            raise ValueError("count must be non-negative")
        return self.order(candidates, bound)[:count]


class RandomSelection(SelectionHeuristic):
    """Uniformly random preference order (seeded, hence reproducible)."""

    name = "random"

    def __init__(self, seed: int = 0) -> None:
        self._rng = np.random.default_rng(seed)

    def order(self, candidates: dict, bound) -> list[int]:
        ids = sorted(candidates)
        self._rng.shuffle(ids)
        return [int(i) for i in ids]


class BoundaryNearestSelection(SelectionHeuristic):
    """Prefer streams whose values sit closest to the range boundary."""

    name = "boundary-nearest"

    def order(self, candidates: dict, bound) -> list[int]:
        return sorted(
            candidates,
            key=lambda i: (bound.boundary_distance(candidates[i]), i),
        )
