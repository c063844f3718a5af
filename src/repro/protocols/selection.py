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
needs "a stream with a false-positive filter".  Candidates are columns:
ascending ids and their payloads (DESIGN.md §12).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.state.runs import stable_key_order


class SelectionHeuristic(ABC):
    """Orders silencing-filter candidates by preference."""

    #: Short name for results tables.
    name: str = "abstract"

    @abstractmethod
    def order(self, ids: np.ndarray, payloads, bound) -> np.ndarray:
        """Return the candidate ids, most-preferred first.

        Parameters
        ----------
        ids, payloads:
            Candidate stream ids, ascending, and their current values
            (or an ``(n, d)`` matrix of points).
        bound:
            The bound value the filters guard: the query range, or the
            k-NN bound ``R`` (a filter constraint or a region).
        """

    def select(self, ids: np.ndarray, payloads, count: int, bound) -> np.ndarray:
        """The *count* most-preferred candidates."""
        if count < 0:
            raise ValueError("count must be non-negative")
        return self.order(ids, payloads, bound)[:count]


class RandomSelection(SelectionHeuristic):
    """Uniformly random preference order (seeded, hence reproducible)."""

    name = "random"

    def __init__(self, seed: int = 0) -> None:
        self._rng = np.random.default_rng(seed)

    def order(self, ids: np.ndarray, payloads, bound) -> np.ndarray:
        # A shuffle of an array draws what the shuffle of the same ids as
        # a list draws, and moves them the same way.
        order = np.array(ids, dtype=np.int64)
        self._rng.shuffle(order)
        return order


class BoundaryNearestSelection(SelectionHeuristic):
    """Prefer streams whose values sit closest to the range boundary."""

    name = "boundary-nearest"

    def order(self, ids: np.ndarray, payloads, bound) -> np.ndarray:
        # Stable on ascending ids: ties go to the smaller id, the
        # library-wide ``(distance, id)`` rule.
        return ids[stable_key_order(bound.boundary_distances(payloads))]
