"""Spatial (multi-dimensional) counterparts of the paper's protocols.

Each class re-derives its 1-D sibling over regions:

* interval ``[l, u]``            ->  :class:`~repro.spatial.geometry.BoxRegion`
* k-NN bound ``R = [q-d, q+d]``  ->  :class:`~repro.spatial.geometry.BallRegion`
* ``[-inf, +inf]`` silencer      ->  ``ALL_SPACE``
* ``[+inf, +inf]`` silencer      ->  ``EMPTY_REGION``

All correctness arguments carry over: they rest only on closed-region
membership and the (distance, id) total order, neither of which is
one-dimensional.  The FT-RP size-trigger tightening (see
``repro.protocols.ft_rp``) is applied here too.

Server-side state lives in the shared :class:`~repro.state.table.
StreamStateTable` owned by the :class:`~repro.spatial.server.
SpatialServer` — the point matrix is its payload column, answers and
``X(t)`` are its membership masks, silencer pools mirror into its flag
column, and rank order is maintained by a :class:`~repro.state.rank.
RankView`.  The rank key is computed per element with the query's scalar
``distance`` (not a vectorized norm) so the (distance, id) order is
bitwise-identical to the legacy ``sorted()`` order.

Every region these protocols deploy (query boxes, k-NN bound balls, and
the two silencers) registers its axis-aligned quiescence boxes in the
table's geometric plane via the sources' bound
:class:`~repro.runtime.membership.RegionMembership`, so the batched
replay pre-scan and the sharded topology serve the spatial stack
exactly as they serve the scalar one: protocols obtain their rank order
through ``server.rank_view(...)`` (a plain :class:`RankView` on one
server, a :class:`~repro.state.sharding.ShardedRankView` k-way merge on
:class:`~repro.server.sharded.ShardedSpatialServer`) and never assume a
topology.
"""

from __future__ import annotations

import math
from collections import deque
from typing import TYPE_CHECKING

import numpy as np

from repro.protocols.base import FilterProtocol
from repro.spatial.geometry import ALL_SPACE, EMPTY_REGION, Region
from repro.spatial.queries import SpatialKnnQuery, SpatialRangeQuery
from repro.state.pools import SilencerPools
from repro.state.rank import RankView
from repro.tolerance.fraction_tolerance import FractionTolerance
from repro.tolerance.knn_fraction import RhoPolicy, answer_size_bounds, derive_rho
from repro.tolerance.rank_tolerance import RankTolerance

if TYPE_CHECKING:
    from repro.spatial.server import SpatialServer
    from repro.state.table import StreamStateTable


def _elementwise_distance_keys(query):
    """A RankView key function that applies ``query.distance`` per row.

    Vectorized norms (``np.linalg.norm(..., axis=1)``) may differ from the
    per-point norm by an ulp (BLAS dot vs. pairwise reduce), which could
    reorder near-ties against the legacy python ``sorted()`` — so rank
    maintenance keys exactly the scalar ``distance`` the protocols use.
    """

    def keys(points: np.ndarray) -> np.ndarray:
        return np.fromiter(
            (query.distance(p) for p in points),
            dtype=np.float64,
            count=len(points),
        )

    return keys


class SpatialProtocol(FilterProtocol):
    """Interface of all spatial protocols: a :class:`FilterProtocol`
    whose update payload is a point instead of a scalar."""


class SpatialNoFilterProtocol(SpatialProtocol):
    """Baseline: every movement is reported; answers are exact."""

    name = "no-filter-2d"

    def __init__(self, query: SpatialRangeQuery | SpatialKnnQuery) -> None:
        self.query = query
        self._state: "StreamStateTable | None" = None

    def initialize(self, server: "SpatialServer") -> None:
        self._state = server.state
        server.probe_all()

    def on_update(self, server, stream_id, point, time) -> None:
        # The server already refreshed the point column.
        assert self._state is not None

    @property
    def answer(self) -> frozenset[int]:
        if self._state is None or self._state.points is None:
            return frozenset()
        return self.query.true_answer(self._state.points)


class SpatialZeroRangeProtocol(SpatialProtocol):
    """ZT-NRP in d dimensions: deploy the query box everywhere."""

    name = "ZT-NRP-2d"

    def __init__(self, query: SpatialRangeQuery) -> None:
        self.query = query
        self._state: "StreamStateTable | None" = None

    def initialize(self, server: "SpatialServer") -> None:
        state = self._state = server.state
        values = server.probe_all()
        state.answer_replace(
            stream_id
            for stream_id, point in values.items()
            if self.query.matches(point)
        )
        for stream_id in server.stream_ids:
            server.deploy(stream_id, self.query.box)

    def on_update(self, server, stream_id, point, time) -> None:
        assert self._state is not None
        if self.query.matches(point):
            self._state.answer_add(stream_id)
        else:
            self._state.answer_discard(stream_id)


class SpatialFractionRangeProtocol(SpatialProtocol):
    """FT-NRP in d dimensions (Figure 7 over a box).

    Silencer placement always uses the boundary-nearest ordering (its 1-D
    superiority, Figure 14, only sharpens in higher dimensions where the
    box boundary is larger).
    """

    name = "FT-NRP-2d"

    def __init__(
        self, query: SpatialRangeQuery, tolerance: FractionTolerance
    ) -> None:
        self.query = query
        self.tolerance = tolerance
        self._state: "StreamStateTable | None" = None
        self._pools = SilencerPools()
        self._count = 0

    def initialize(self, server: "SpatialServer") -> None:
        if self._state is not server.state:
            self._state = server.state
            self._pools.bind(self._state)
        values = server.probe_all()
        inside = {
            stream_id: point
            for stream_id, point in values.items()
            if self.query.matches(point)
        }
        outside = {
            stream_id: point
            for stream_id, point in values.items()
            if stream_id not in inside
        }
        self._state.answer_replace(inside)
        self._count = 0

        n_plus = min(self.tolerance.emax_plus(len(inside)), len(inside))
        n_minus = min(self.tolerance.emax_minus(len(inside)), len(outside))
        fp_ids = self._nearest_boundary(inside, n_plus)
        fn_ids = self._nearest_boundary(outside, n_minus)
        self._pools.reset(fp_ids, fn_ids)

        fp_set, fn_set = set(fp_ids), set(fn_ids)
        for stream_id in values:
            if stream_id in fp_set:
                server.deploy(stream_id, ALL_SPACE)
            elif stream_id in fn_set:
                server.deploy(stream_id, EMPTY_REGION)
            else:
                server.deploy(stream_id, self.query.box)
        self._enforce_budgets(server)

    def _nearest_boundary(self, candidates: dict, count: int) -> list[int]:
        ordered = sorted(
            candidates,
            key=lambda i: (self.query.boundary_distance(candidates[i]), i),
        )
        return ordered[:count]

    def on_update(self, server, stream_id, point, time) -> None:
        assert self._state is not None
        if self.query.matches(point):
            self._state.answer_add(stream_id)
            self._count += 1
        else:
            self._state.answer_discard(stream_id)
            if self._count > 0:
                self._count -= 1
            else:
                self._fix_error(server)
            # Shrinking answers re-tighten the silencer budgets; see
            # repro.protocols.ft_nrp (second deviation).
            self._enforce_budgets(server)

    def _fix_error(self, server: "SpatialServer") -> None:
        assert self._state is not None
        if self._pools.fp:
            candidate = self._pools.pop_fp()
            point = server.probe(candidate)
            if self.query.matches(point):
                server.deploy(candidate, self.query.box)
                return
            self._state.answer_discard(candidate)
            self._pools.push_fn(candidate)
        if self._pools.fn:
            candidate = self._pools.pop_fn()
            point = server.probe(candidate)
            if self.query.matches(point):
                self._state.answer_add(candidate)
            server.deploy(candidate, self.query.box)

    def _fp_budget_ok(self) -> bool:
        assert self._state is not None
        return self._pools.n_plus <= (
            self.tolerance.eps_plus * self._state.answer_size + 1e-9
        )

    def _fn_budget_ok(self) -> bool:
        assert self._state is not None
        in_range_floor = self._state.answer_size - self._pools.n_plus
        return self._pools.n_minus * (1.0 - self.tolerance.eps_minus) <= (
            self.tolerance.eps_minus * in_range_floor + 1e-9
        )

    def _enforce_budgets(self, server: "SpatialServer") -> None:
        assert self._state is not None
        while self._pools.fp and not self._fp_budget_ok():
            candidate = self._pools.pop_fp()
            point = server.probe(candidate)
            if not self.query.matches(point):
                self._state.answer_discard(candidate)
            server.deploy(candidate, self.query.box)
        while self._pools.fn and not self._fn_budget_ok():
            candidate = self._pools.pop_fn()
            point = server.probe(candidate)
            if self.query.matches(point):
                self._state.answer_add(candidate)
            server.deploy(candidate, self.query.box)

    @property
    def n_plus(self) -> int:
        return self._pools.n_plus

    @property
    def n_minus(self) -> int:
        return self._pools.n_minus

    @property
    def _fp_pool(self) -> deque[int]:
        return self._pools.fp

    @property
    def _fn_pool(self) -> deque[int]:
        return self._pools.fn


class SpatialRankToleranceProtocol(SpatialProtocol):
    """RTP in d dimensions: the bound ``R`` is a ball around ``q``."""

    name = "RTP-2d"

    def __init__(
        self, query: SpatialKnnQuery, tolerance: RankTolerance
    ) -> None:
        if tolerance.k != query.k:
            raise ValueError(
                f"tolerance k={tolerance.k} does not match query k={query.k}"
            )
        self.query = query
        self.tolerance = tolerance
        self._state: "StreamStateTable | None" = None
        self._rank: RankView | None = None
        self._region: Region | None = None
        self.reinitializations = 0
        self.expansions = 0

    @property
    def eps(self) -> int:
        return self.tolerance.eps

    def _distance(self, point: np.ndarray) -> float:
        return self.query.distance(point)

    def _known_point(self, stream_id: int) -> np.ndarray:
        assert self._state is not None and self._state.points is not None
        return self._state.points[stream_id]

    def _ranked_known(self) -> list[int]:
        assert self._rank is not None
        return self._rank.order()

    def initialize(self, server: "SpatialServer") -> None:
        if server.n_streams <= self.eps:
            raise ValueError(
                f"RTP needs more than eps = {self.eps} streams"
            )
        if self._state is not server.state:
            self._state = server.state
            self._rank = server.rank_view(
                _elementwise_distance_keys(self.query)
            )
        server.probe_all()
        order = self._ranked_known()
        self._state.answer_replace(order[: self.query.k])
        self._state.tracked_replace(order[: self.eps])
        self._deploy_bound(server, fresh_ids=set(server.stream_ids))

    def _deploy_bound(self, server: "SpatialServer", fresh_ids: set[int]) -> None:
        assert self._state is not None
        order = self._ranked_known()
        tracked = self._state.tracked_mask
        inside = [i for i in order if tracked[i]]
        outside = [i for i in order if not tracked[i]]
        d_inside = self._distance(self._known_point(inside[-1]))
        d_outside = self._distance(self._known_point(outside[0]))
        threshold = (d_inside + max(d_outside, d_inside)) / 2.0
        self._region = self.query.region(threshold)
        for stream_id in server.stream_ids:
            if stream_id in fresh_ids:
                server.deploy(stream_id, self._region)
            else:
                server.deploy(
                    stream_id,
                    self._region,
                    assumed_inside=bool(tracked[stream_id]),
                )

    def on_update(self, server, stream_id, point, time) -> None:
        assert self._region is not None and self._state is not None
        if not self._region.contains(point):
            if self._state.answer_contains(stream_id):
                self._case_leaves_answer(server, stream_id)
            else:
                self._state.tracked_discard(stream_id)
        else:
            if not self._state.tracked_contains(stream_id):
                self._case_enters(server, stream_id)

    def _case_leaves_answer(self, server, stream_id) -> None:
        assert self._state is not None
        self._state.answer_discard(stream_id)
        self._state.tracked_discard(stream_id)
        replacements = self._state.tracked_not_in_answer()
        if replacements.size:
            best = min(
                (int(i) for i in replacements),
                key=lambda i: (self._distance(self._known_point(i)), i),
            )
            self._state.answer_add(best)
            return
        if self._expand_search(server):
            return
        self.reinitializations += 1
        self.initialize(server)

    def _expand_search(self, server) -> bool:
        assert self._state is not None
        self.expansions += 1
        candidates = [
            i
            for i in self._ranked_known()
            if not self._state.answer_contains(i)
        ]
        probed: dict[int, np.ndarray] = {}
        for candidate in candidates:
            probed[candidate] = server.probe(candidate)
            radius = self._distance(probed[candidate])
            u_set = {
                i for i, p in probed.items() if self._distance(p) <= radius
            }
            if len(u_set) >= 2:
                ranked_u = sorted(
                    u_set, key=lambda i: (self._distance(probed[i]), i)
                )
                self._state.answer_add(ranked_u[0])
                keep = ranked_u[: self.tolerance.r + 1]
                self._state.tracked_replace(
                    set(self._state.answer_snapshot()) | set(keep)
                )
                self._deploy_bound(server, fresh_ids=set(probed))
                return True
        return False

    def _case_enters(self, server, stream_id) -> None:
        assert self._state is not None
        if self._state.tracked_size < self.eps:
            self._state.tracked_add(stream_id)
            return
        members = [int(i) for i in self._state.tracked_ids()]
        fresh_ids = {stream_id}
        for member in members:
            server.probe(member)
            fresh_ids.add(member)
        pool = members + [stream_id]
        ranked = sorted(
            pool, key=lambda i: (self._distance(self._known_point(i)), i)
        )
        self._state.answer_replace(ranked[: self.query.k])
        self._state.tracked_replace(ranked[: self.eps])
        self._deploy_bound(server, fresh_ids=fresh_ids)

    @property
    def tracked(self) -> frozenset[int]:
        if self._state is None:
            return frozenset()
        return self._state.tracked_snapshot()

    @property
    def region(self) -> Region | None:
        return self._region


class SpatialZeroKnnProtocol(SpatialProtocol):
    """ZT-RP in d dimensions: recompute the ball on every crossing."""

    name = "ZT-RP-2d"

    def __init__(self, query: SpatialKnnQuery) -> None:
        self.query = query
        self._state: "StreamStateTable | None" = None
        self._rank: RankView | None = None
        self._region: Region | None = None
        self.recomputations = 0

    def initialize(self, server: "SpatialServer") -> None:
        if server.n_streams <= self.query.k:
            raise ValueError(
                f"ZT-RP needs more than k = {self.query.k} streams"
            )
        if self._state is not server.state:
            self._state = server.state
            self._rank = server.rank_view(
                _elementwise_distance_keys(self.query)
            )
        server.probe_all()
        self._resolve(server)

    def _resolve(self, server) -> None:
        assert self._state is not None and self._rank is not None
        k = self.query.k
        leaders = self._rank.leaders(k + 1)
        self._state.answer_replace(leaders[:k])
        d_in = self.query.distance(self._state.points[leaders[k - 1]])
        d_out = self.query.distance(self._state.points[leaders[k]])
        self._region = self.query.region((d_in + d_out) / 2.0)
        for stream_id in server.stream_ids:
            server.deploy(stream_id, self._region)

    def on_update(self, server, stream_id, point, time) -> None:
        self.recomputations += 1
        others = [i for i in server.stream_ids if i != stream_id]
        server.probe_all(others)
        self._resolve(server)

    @property
    def region(self) -> Region | None:
        return self._region


class SpatialFractionKnnProtocol(SpatialProtocol):
    """FT-RP in d dimensions, with the tightened size triggers."""

    name = "FT-RP-2d"

    def __init__(
        self,
        query: SpatialKnnQuery,
        tolerance: FractionTolerance,
        policy: RhoPolicy = RhoPolicy.BALANCED,
    ) -> None:
        self.query = query
        self.tolerance = tolerance
        self.policy = policy
        self.rho_plus, self.rho_minus = derive_rho(tolerance, policy)
        self.size_min, self.size_max = answer_size_bounds(query.k, tolerance)
        self._state: "StreamStateTable | None" = None
        self._rank: RankView | None = None
        self._pools = SilencerPools()
        self._count = 0
        self._region: Region | None = None
        self.recomputations = 0

    def initialize(self, server: "SpatialServer") -> None:
        if server.n_streams <= self.query.k:
            raise ValueError(
                f"FT-RP needs more than k = {self.query.k} streams"
            )
        if self._state is not server.state:
            self._state = server.state
            self._rank = server.rank_view(
                _elementwise_distance_keys(self.query)
            )
            self._pools.bind(self._state)
        server.probe_all()
        self._resolve(server)

    def _resolve(self, server) -> None:
        assert self._state is not None and self._rank is not None
        state, k = self._state, self.query.k
        leaders = self._rank.leaders(k + 1)
        top = leaders[:k]
        state.answer_replace(top)
        self._count = 0
        points = state.points
        d_in = self.query.distance(points[leaders[k - 1]])
        d_out = self.query.distance(points[leaders[k]])
        self._region = self.query.region((d_in + d_out) / 2.0)

        inside = {i: points[i] for i in top}
        outside_mask = state.known.copy()
        outside_mask[top] = False
        outside = {
            int(i): points[i] for i in np.nonzero(outside_mask)[0]
        }
        n_fp = min(math.floor(k * self.rho_plus + 1e-9), len(inside))
        n_fn = min(math.floor(k * self.rho_minus + 1e-9), len(outside))
        fp_ids = self._nearest_boundary(inside, n_fp)
        fn_ids = self._nearest_boundary(outside, n_fn)
        self._pools.reset(fp_ids, fn_ids)

        fp_set, fn_set = set(fp_ids), set(fn_ids)
        for stream_id in server.stream_ids:
            if stream_id in fp_set:
                server.deploy(stream_id, ALL_SPACE)
            elif stream_id in fn_set:
                server.deploy(stream_id, EMPTY_REGION)
            else:
                server.deploy(stream_id, self._region)

    def _nearest_boundary(self, candidates: dict, count: int) -> list[int]:
        assert self._region is not None
        ordered = sorted(
            candidates,
            key=lambda i: (self._region.boundary_distance(candidates[i]), i),
        )
        return ordered[:count]

    @property
    def effective_size_max(self) -> int:
        budget = self.query.k - self._pools.n_minus
        return math.floor(budget / (1.0 - self.tolerance.eps_plus) + 1e-9)

    @property
    def effective_size_min(self) -> int:
        base = math.ceil(
            self.query.k * (1.0 - self.tolerance.eps_minus) - 1e-9
        )
        return base + self._pools.n_plus + self._pools.n_minus

    def _bounds_violated(self) -> bool:
        assert self._state is not None
        size = self._state.answer_size
        return size > self.effective_size_max or size < self.effective_size_min

    def on_update(self, server, stream_id, point, time) -> None:
        assert self._region is not None and self._state is not None
        if self._region.contains(point):
            self._state.answer_add(stream_id)
            if self._bounds_violated():
                self._recompute(server)
                return
            self._count += 1
        else:
            self._state.answer_discard(stream_id)
            if self._bounds_violated():
                self._recompute(server)
                return
            if self._count > 0:
                self._count -= 1
            else:
                self._fix_error(server)
                if self._bounds_violated():
                    self._recompute(server)

    def _recompute(self, server) -> None:
        self.recomputations += 1
        server.probe_all()
        self._resolve(server)

    def _fix_error(self, server) -> None:
        assert self._region is not None and self._state is not None
        if self._pools.fp:
            candidate = self._pools.pop_fp()
            point = server.probe(candidate)
            if self._region.contains(point):
                server.deploy(candidate, self._region)
                return
            self._state.answer_discard(candidate)
            self._pools.push_fn(candidate)
        if self._pools.fn:
            candidate = self._pools.pop_fn()
            point = server.probe(candidate)
            if self._region.contains(point):
                self._state.answer_add(candidate)
            server.deploy(candidate, self._region)

    @property
    def region(self) -> Region | None:
        return self._region

    @property
    def n_plus(self) -> int:
        return self._pools.n_plus

    @property
    def n_minus(self) -> int:
        return self._pools.n_minus

    @property
    def _fp_pool(self) -> deque[int]:
        return self._pools.fp

    @property
    def _fn_pool(self) -> deque[int]:
        return self._pools.fn
