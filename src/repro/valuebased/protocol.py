"""The value-tolerance top-k protocol, hosted like every other protocol.

The server answers a top-k query from the window centres it knows — the
host table's ``values`` column, recorded as each report is delivered;
the value guarantee is ``eps`` (every known value is within ``eps/2`` of
the truth, so every returned stream's true value is within ``eps`` of
the true k-th best).  A checked run is judged by
:class:`~repro.correctness.checker.RankQualityChecker`, which measures
what the user actually cares about for an entity-based query — the
*true ranks* of the returned streams — to quantify Figure 1's
complaint.
"""

from __future__ import annotations

import numpy as np

from repro.correctness.checker import RankQualityChecker
from repro.protocols.base import FilterProtocol
from repro.queries.base import RankBasedQuery
from repro.queries.rank import top_mask
from repro.valuebased.source import WindowPopulation


class ValueToleranceTopKProtocol(FilterProtocol):
    """Server side of the value-window scheme for a rank-based query.

    It runs on :class:`WindowPopulation` sources of width ``eps``, whose
    windows start centred on the values the host table is seeded with
    (no message: the ledger's initialization phase stays empty), and
    sends nothing: maintenance is the sources' reports alone.
    """

    name = "value-eps"
    checker_kind = RankQualityChecker

    def __init__(self, query: RankBasedQuery, eps: float) -> None:
        if eps < 0:
            raise ValueError("eps must be non-negative")
        self.query = query
        self.eps = float(eps)

    def population(self, initial_values, channels, ranges) -> WindowPopulation:
        """The sources this scheme runs on: one window of width ``eps``
        per stream."""
        return WindowPopulation(initial_values, channels, ranges, self.eps)

    def initialize(self, server) -> None:
        self._state = server.state

    def on_update(self, server, stream_id: int, value, time: float) -> None:
        """The host has recorded the new window centre; nothing to do."""

    @property
    def answer_mask(self) -> np.ndarray:
        """The k best streams by *known* (window-centre) values."""
        assert self._state is not None, "initialize() must run first"
        return top_mask(self.query.distance_array(self._state.values), self.query.k)

    @property
    def answer(self) -> frozenset[int]:
        if self._state is None:
            return frozenset()
        return frozenset(np.flatnonzero(self.answer_mask).tolist())
