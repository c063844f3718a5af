"""ZT-RP: zero-tolerance k-NN via the range view (Section 5.2.1).

A k-NN query is viewed as a range query over the bound ``R`` that encloses
the k-th nearest neighbour (an interval on the line, a ball in d
dimensions — the query's ``region(threshold)``): while no object crosses ``R``, the k objects
inside it remain the exact answer.  The protocol's weakness — and the
reason FT-RP exists — is that *any* crossing invalidates ``R``: the server
must re-collect every value, recompute ``R``, and announce it to every
stream ("it is very sensitive to the situation when an object's value
crosses R").  Each crossing therefore costs about ``3n`` messages.

The recompute path runs on the columnar state engine: the server's
probe replies land in the shared :class:`~repro.state.table.
StreamStateTable`, and the ``k+1`` leaders are extracted with one
vectorized partial selection (:class:`~repro.state.rank.RankView`)
instead of a full python ``sorted()`` scan.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.protocols.base import FilterProtocol
from repro.state.rank import RankView

if TYPE_CHECKING:
    from repro.server.server import Server
    from repro.state.table import StreamStateTable


class ZeroToleranceKnnProtocol(FilterProtocol):
    """Exact k-NN answering with a single shared bound ``R``."""

    name = "ZT-RP"

    def __init__(self, query) -> None:
        self.query = query
        self._state: "StreamStateTable | None" = None
        self._rank: RankView | None = None
        self._region = None
        self.recomputations = 0

    def _bind(self, server: "Server") -> None:
        if self._state is not server.state:
            self._state = server.state
            self._rank = server.rank_view(self.query.rank_keys)

    def initialize(self, server: "Server") -> None:
        if server.n_streams <= self.query.k:
            raise ValueError(
                f"ZT-RP needs more than k = {self.query.k} streams"
            )
        self._bind(server)
        server.probe_all()
        self._resolve(server)

    def _resolve(self, server: "Server") -> None:
        """Recompute R from fresh values and deploy it everywhere."""
        assert self._state is not None and self._rank is not None
        k = self.query.k
        leaders = self._rank.leaders(k + 1)
        self._state.answer_replace(leaders[:k])
        d_in = self.query.distance(self._state.value_of(leaders[k - 1]))
        d_out = self.query.distance(self._state.value_of(leaders[k]))
        self._region = self.query.region((d_in + d_out) / 2.0)
        server.deploy_many(None, self._region)

    def on_update(
        self, server: "Server", stream_id: int, value, time: float
    ) -> None:
        # Any crossing invalidates R: re-collect everything and start over.
        # (The server already recorded the updater's value in the table.)
        self.recomputations += 1
        # Every id but the updater's, ascending: arange minus one index.
        others = np.arange(server.n_streams - 1, dtype=np.int64)
        others[stream_id:] += 1
        server.probe_all(others)
        self._resolve(server)

    @property
    def region(self):
        """The currently deployed bound ``R`` (a bound value)."""
        return self._region
