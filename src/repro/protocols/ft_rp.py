"""FT-RP: fraction-based tolerance for k-NN queries (Sections 5.2.2-5.2.3).

FT-RP runs FT-NRP over the range view of the k-NN query, with two twists:

1. **Internal tolerances.**  The user's ``eps+/eps-`` cannot parameterize
   FT-NRP directly: a silenced in-bound stream that drifts away creates a
   false positive *and* (by promoting another stream into the true top-k)
   a false negative, and symmetrically for silenced out-of-bound streams.
   The internal ``rho+/rho-`` must satisfy Equation 15 and are maximized
   on the Equation 16 frontier (see :mod:`repro.tolerance.knn_fraction`).
   ``k * rho+`` streams inside ``R`` get false-positive filters and
   ``k * rho-`` streams outside get false-negative filters.

2. **Answer-size bounds.**  ``R`` is only an *estimate* of the k-NN
   region; while ``|A(t)|`` stays within bounds the answer remains within
   tolerance.  When an entering object pushes ``|A|`` above the upper
   bound, ``R`` is "too loose"; when a leaving object drops it below the
   lower bound, "too tight" — either way the bound is recomputed from a
   full collection and redeployed, the only moment FT-RP pays ZT-RP's
   ``~3n`` price.

Deviation from the paper (documented in DESIGN.md): the paper keeps ``R``
while ``k(1 - eps-) <= |A| <= k/(1 - eps+)`` (Equations 7, 9).  Those
bounds ignore a coupling their own Figure 8 introduces.  Because a k-NN
query has exactly ``k`` true answers, ``E+ = |A| - k + E-`` identically;
with ``|A|`` at the paper's cap *and* an FN-silenced stream inside ``R``
unnoticed (``E- > 0``), ``F+`` overshoots ``eps+`` — our continuous
checker exhibits this for the ``FAVOR_FN`` policy.  We therefore tighten
the triggers by the *live* silencer pool sizes:

    ``|A| <= (k - n_fn) / (1 - eps+)``              (F+ safe), and
    ``|A| >= k (1 - eps-) + n_fp + n_fn``           (F- safe),

which reduce to the paper's bounds as the pools drain and never exclude
the initial state (``|A| = k`` satisfies both for any Equation-16 pair).

At ``eps+ = eps- = 0`` the silencer pools are empty and the size bounds
collapse to ``|A| = k``, so every crossing forces a recomputation: FT-RP
degenerates to ZT-RP, which is how Figure 15's ``eps = 0`` points are
produced.

The recompute path runs on the columnar state engine (shared
:class:`~repro.state.table.StreamStateTable` + vectorized
:class:`~repro.state.rank.RankView` partial selection); the FIFO
silencer pools are mirrored into the table's flag column.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from repro.protocols.base import SilencingProtocol
from repro.protocols.selection import BoundaryNearestSelection, SelectionHeuristic
from repro.state.pools import SilencerPools
from repro.state.rank import RankView
from repro.state.table import membership_mask
from repro.tolerance.fraction_tolerance import FractionTolerance
from repro.tolerance.knn_fraction import RhoPolicy, answer_size_bounds, derive_rho

if TYPE_CHECKING:
    from repro.server.server import Server
    from repro.state.table import StreamStateTable


class FractionToleranceKnnProtocol(SilencingProtocol):
    """The FT-RP algorithm.

    Parameters
    ----------
    query:
        A rank-based query (k-NN, top-k, k-min, or spatial k-NN).
    tolerance:
        The user's ``eps+/eps-`` fractions.
    policy:
        Which point of the Equation-16 frontier to run at (ablation
        dimension; ``BALANCED`` by default).
    selection:
        Placement heuristic for the silencing filters.
    """

    name = "FT-RP"

    def __init__(
        self,
        query,
        tolerance: FractionTolerance,
        policy: RhoPolicy = RhoPolicy.BALANCED,
        selection: SelectionHeuristic | None = None,
    ) -> None:
        self.query = query
        self.tolerance = tolerance
        self.policy = policy
        self.selection = selection or BoundaryNearestSelection()
        self.rho_plus, self.rho_minus = derive_rho(tolerance, policy)
        # The paper's static Equations 7/9 bounds, kept for reference and
        # reporting; the live triggers below tighten them by pool sizes.
        self.size_min, self.size_max = answer_size_bounds(query.k, tolerance)
        self._state: "StreamStateTable | None" = None
        self._rank: RankView | None = None
        self._pools = SilencerPools()
        self._count = 0
        self._region = None
        self.recomputations = 0

    # ------------------------------------------------------------------
    # Initialization
    # ------------------------------------------------------------------
    def initialize(self, server: "Server") -> None:
        if server.n_streams <= self.query.k:
            raise ValueError(
                f"FT-RP needs more than k = {self.query.k} streams"
            )
        if self._state is not server.state:
            self._state = server.state
            self._rank = server.rank_view(self.query.rank_keys)
            self._pools.bind(self._state)
        server.probe_all()
        self._resolve(server)

    def _resolve(self, server: "Server") -> None:
        """Compute R from fresh table values, pick silencers, deploy."""
        assert self._state is not None and self._rank is not None
        state, k = self._state, self.query.k
        leaders = self._rank.leaders(k + 1)
        top = membership_mask(leaders[:k], state.n_streams)
        state.answer_set_mask(top)
        self._count = 0
        payloads = state.payload_array()
        d_in = self.query.distance(payloads[leaders[k - 1]])
        d_out = self.query.distance(payloads[leaders[k]])
        self._region = self.query.region((d_in + d_out) / 2.0)

        inside = np.flatnonzero(top)
        outside = np.flatnonzero(state.known & ~top)
        n_fp = min(math.floor(k * self.rho_plus + 1e-9), len(inside))
        n_fn = min(math.floor(k * self.rho_minus + 1e-9), len(outside))
        fp_ids = self.selection.select(
            inside, payloads[inside], n_fp, self._region
        )
        fn_ids = self.selection.select(
            outside, payloads[outside], n_fn, self._region
        )
        self._pools.reset(fp_ids, fn_ids)

        server.deploy_many(None, self._region, silenced=self._pools)

    # ------------------------------------------------------------------
    # Live answer-size triggers (see module docstring)
    # ------------------------------------------------------------------
    @property
    def effective_size_max(self) -> int:
        """Largest ``|A|`` that keeps F+ safe given live FN silencers."""
        k = self.query.k
        budget = k - self._pools.n_minus
        return math.floor(budget / (1.0 - self.tolerance.eps_plus) + 1e-9)

    @property
    def effective_size_min(self) -> int:
        """Smallest ``|A|`` that keeps F- safe given live silencers."""
        k = self.query.k
        base = math.ceil(k * (1.0 - self.tolerance.eps_minus) - 1e-9)
        return base + self._pools.n_plus + self._pools.n_minus

    def _bounds_violated(self) -> bool:
        assert self._state is not None
        size = self._state.answer_size
        return size > self.effective_size_max or size < self.effective_size_min

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def on_update(
        self, server: "Server", stream_id: int, value, time: float
    ) -> None:
        assert self._region is not None, "initialize() must run first"
        assert self._state is not None
        if self._region.contains(value):
            # An object entered R.
            self._state.answer_add(stream_id)
            if self._bounds_violated():
                # R is too loose: it pretends too many objects are top-k.
                self._recompute(server)
                return
            self._count += 1
        else:
            # An object left R.
            self._state.answer_discard(stream_id)
            if self._bounds_violated():
                # R is too tight: it can no longer cover k objects.
                self._recompute(server)
                return
            if self._count > 0:
                self._count -= 1
            else:
                self._fix_error(server, self._region)
                if self._bounds_violated():
                    self._recompute(server)

    def _recompute(self, server: "Server") -> None:
        """Full collection + redeployment — the expensive path."""
        self.recomputations += 1
        server.probe_all()
        self._resolve(server)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def region(self):
        """The current k-NN bound estimate ``R`` (a bound value)."""
        return self._region
