"""Initialization from columns leaves what the dict-and-loop form left.

The protocols initialize from ``probe_all``'s payload column: a mask for
the answer, one vectorized boundary-distance column and a stable order
for the silencers, a scatter per pool for the flag column (DESIGN.md
§12).  The form they replaced — an id -> payload dict, ``sorted`` over a
per-stream key lambda, per-id table writes — lives here as the oracle,
written against the same hosts.  After ``initialize`` and after a whole
replay, the answer and tracked masks, both pool deques *in order*, the
silencer column, the constraint columns and the ledger must be equal, on
one server, on two shards and on the per-message path.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Workload
from repro.protocols.ft_nrp import FractionToleranceRangeProtocol
from repro.protocols.ft_rp import FractionToleranceKnnProtocol
from repro.protocols.rtp import RankToleranceProtocol
from repro.protocols.selection import BoundaryNearestSelection, RandomSelection
from repro.protocols.zt_nrp import ZeroToleranceRangeProtocol
from repro.queries.knn import TopKQuery
from repro.queries.range_query import RangeQuery
from repro.runtime.session import ExecutionSession
from repro.spatial.geometry import ALL_SPACE, BallRegion, BoxRegion
from repro.spatial.queries import SpatialKnnQuery, SpatialRangeQuery
from repro.state.pools import SilencerPools
from repro.state.table import SILENCER_FN, SILENCER_FP
from repro.streams.filters import (
    FALSE_NEGATIVE_FILTER,
    FALSE_POSITIVE_FILTER,
    FilterConstraint,
)
from repro.tolerance.fraction_tolerance import FractionTolerance
from repro.tolerance.rank_tolerance import RankTolerance
from control_forcing import run_per_message


# ----------------------------------------------------------------------
# The oracle: the dict-and-loop initialization
# ----------------------------------------------------------------------
def _as_dict(payloads) -> dict:
    """``probe_all``'s column as the id -> payload dict it used to be."""
    rows = payloads.tolist() if payloads.ndim == 1 else list(payloads)
    return dict(enumerate(rows))


def _replace(mask: np.ndarray, members) -> int:
    mask[:] = False
    for stream_id in members:
        mask[int(stream_id)] = True
    return int(np.count_nonzero(mask))


def _answer_replace(state, members) -> None:
    state._answer_count = _replace(state.answer_mask, members)


class LoopPools(SilencerPools):
    def _sync_flags(self) -> None:
        if self._table is None:
            return
        self._table.clear_silencers()
        for stream_id in self.fp:
            self._table.set_silencer(stream_id, SILENCER_FP)
        for stream_id in self.fn:
            self._table.set_silencer(stream_id, SILENCER_FN)

    def reset(self, fp_ids, fn_ids) -> None:
        self.fp = deque(int(i) for i in fp_ids)
        self.fn = deque(int(i) for i in fn_ids)
        self._sync_flags()


class SortedBoundaryNearest:
    name = "boundary-nearest"

    def select(self, candidates: dict, count: int, bound) -> list[int]:
        return sorted(
            candidates,
            key=lambda i: (bound.boundary_distance(candidates[i]), i),
        )[:count]


class ListRandom:
    name = "random"

    def __init__(self, seed: int = 0) -> None:
        self._rng = np.random.default_rng(seed)

    def select(self, candidates: dict, count: int, bound) -> list[int]:
        ids = sorted(candidates)
        self._rng.shuffle(ids)
        return [int(i) for i in ids][:count]


class LoopFTNRP(FractionToleranceRangeProtocol):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._pools = LoopPools()

    def _install(self, server, payloads) -> None:
        values = _as_dict(payloads)
        inside = {
            stream_id: value
            for stream_id, value in values.items()
            if self.query.matches(value)
        }
        outside = {
            stream_id: value
            for stream_id, value in values.items()
            if stream_id not in inside
        }
        _answer_replace(self._state, inside)
        self._count = 0
        n_plus = min(self.tolerance.emax_plus(len(inside)), len(inside))
        n_minus = min(self.tolerance.emax_minus(len(inside)), len(outside))
        fp_ids = self.selection.select(inside, n_plus, self._bound)
        fn_ids = self.selection.select(outside, n_minus, self._bound)
        self._pools.reset(fp_ids, fn_ids)
        server.deploy_many(list(values), self._bound, silenced=self._pools)
        self._enforce_budgets(server)


class LoopZTNRP(ZeroToleranceRangeProtocol):
    def initialize(self, server) -> None:
        state = self._state = server.state
        values = _as_dict(server.probe_all())
        _answer_replace(
            state,
            (i for i, value in values.items() if self.query.matches(value)),
        )
        server.deploy_many(server.stream_ids, self.query.bound)


class LoopFTRP(FractionToleranceKnnProtocol):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._pools = LoopPools()

    def _resolve(self, server) -> None:
        state, k = self._state, self.query.k
        leaders = self._rank.leaders(k + 1)
        top = leaders[:k]
        _answer_replace(state, top)
        self._count = 0
        payloads = state.payload_array()
        d_in = self.query.distance(payloads[leaders[k - 1]])
        d_out = self.query.distance(payloads[leaders[k]])
        self._region = self.query.region((d_in + d_out) / 2.0)
        inside = {i: payloads[i] for i in top}
        outside_mask = state.known.copy()
        outside_mask[top] = False
        outside = {int(i): payloads[i] for i in np.nonzero(outside_mask)[0]}
        n_fp = min(math.floor(k * self.rho_plus + 1e-9), len(inside))
        n_fn = min(math.floor(k * self.rho_minus + 1e-9), len(outside))
        fp_ids = self.selection.select(inside, n_fp, self._region)
        fn_ids = self.selection.select(outside, n_fn, self._region)
        self._pools.reset(fp_ids, fn_ids)
        server.deploy_many(server.stream_ids, self._region, silenced=self._pools)


class LoopRTP(RankToleranceProtocol):
    def initialize(self, server) -> None:
        if self._state is not server.state:
            self._state = server.state
            self._rank = server.rank_view(self.query.rank_keys)
        server.probe_all()
        order = self._rank.order()
        _answer_replace(self._state, order[: self.query.k])
        self._state._tracked_count = _replace(
            self._state.tracked_mask, order[: self.eps]
        )
        self._deploy_bound(server, fresh_ids=None)


# ----------------------------------------------------------------------
# One grid: protocol x selection x host, columnar vs loop
# ----------------------------------------------------------------------
RANGE = RangeQuery(400.0, 600.0)
TOL = FractionTolerance(0.2, 0.2)
TOPK = TopKQuery(k=10)
LIVELY = Workload.synthetic(n_streams=300, horizon=400.0, sigma=150.0, seed=3)
MOVING = Workload.moving_objects(n_objects=150, horizon=30.0, seed=4)
BOX = SpatialRangeQuery(BoxRegion([300.0, 300.0], [700.0, 700.0]))


def _selection(kind, loop):
    if kind == "boundary":
        return SortedBoundaryNearest() if loop else BoundaryNearestSelection()
    return ListRandom(seed=5) if loop else RandomSelection(seed=5)


def _protocol(name, selection, loop):
    pick = _selection(selection, loop)
    if name in ("ft-nrp", "ft-nrp-reinit"):
        klass = LoopFTNRP if loop else FractionToleranceRangeProtocol
        return klass(
            RANGE, TOL, selection=pick,
            reinitialize_when_exhausted=name == "ft-nrp-reinit",
        )
    if name == "ft-nrp-2d":
        klass = LoopFTNRP if loop else FractionToleranceRangeProtocol
        return klass(BOX, TOL, selection=pick)
    if name == "zt-nrp":
        return (LoopZTNRP if loop else ZeroToleranceRangeProtocol)(RANGE)
    if name == "ft-rp":
        klass = LoopFTRP if loop else FractionToleranceKnnProtocol
        return klass(TopKQuery(k=30), FractionTolerance(0.3, 0.3), selection=pick)
    if name == "ft-rp-2d":
        klass = LoopFTRP if loop else FractionToleranceKnnProtocol
        query = SpatialKnnQuery((500.0, 500.0), 24)
        return klass(query, FractionTolerance(0.3, 0.3), selection=pick)
    return (LoopRTP if loop else RankToleranceProtocol)(
        TOPK, RankTolerance(k=10, r=5)
    )


def _session(name, protocol, host):
    if name.endswith("-2d"):
        trace = MOVING.materialize()
        if host == "sharded":
            return trace, ExecutionSession.for_spatial_sharded(trace, protocol, 2)
        return trace, ExecutionSession.for_spatial(trace, protocol)
    trace = LIVELY.materialize()
    if host == "sharded":
        return trace, ExecutionSession.for_streams_sharded(trace, protocol, 2)
    return trace, ExecutionSession.for_streams(trace, protocol)


def _observe(session, protocol) -> dict:
    state = session.host.state
    pools = getattr(protocol, "_pools", None)
    return {
        "ledger": session.snapshot(),
        "answer": state.answer_mask.tolist(),
        "tracked": state.tracked_mask.tolist(),
        "fp": list(pools.fp) if pools else None,
        "fn": list(pools.fn) if pools else None,
        "silencer": state.silencer.tolist(),
        "bounds": (state.lower.tolist(), state.upper.tolist()),
        "count": getattr(protocol, "_count", None),
    }


def _run(name, selection, host, loop) -> tuple[dict, dict, object]:
    protocol = _protocol(name, selection, loop)
    trace, session = _session(name, protocol, host)

    def run():
        session.initialize(0.0)
        initialized = _observe(session, protocol)
        session.replay_trace(trace, mode="batch")
        return initialized, _observe(session, protocol), protocol

    # The per-message host declines every batch at the channel's gate.
    return run_per_message(run) if host == "per-message" else run()


SCALAR_CASES = [
    ("ft-nrp", "boundary"),
    ("ft-nrp", "random"),
    ("ft-nrp-reinit", "boundary"),
    ("ft-nrp-reinit", "random"),
    ("zt-nrp", None),
    ("ft-rp", "boundary"),
    ("ft-rp", "random"),
    ("rtp", None),
]
#: Regions always travel per message: no third host to tell apart.
SPATIAL_CASES = [("ft-nrp-2d", "boundary"), ("ft-rp-2d", "random")]
CASES = [
    pytest.param(name, selection, host, id=f"{name}-{selection}-{host}")
    for name, selection in SCALAR_CASES + SPATIAL_CASES
    for host in ("single", "sharded", "per-message")
    if not (host == "per-message" and name.endswith("-2d"))
]


@pytest.mark.parametrize("name,selection,host", CASES)
def test_columnar_initialize_equals_the_loop(name, selection, host):
    columnar_init, columnar_end, protocol = _run(name, selection, host, False)
    loop_init, loop_end, _ = _run(name, selection, host, True)
    assert columnar_init == loop_init
    assert columnar_end == loop_end
    if name == "ft-nrp-reinit":
        assert protocol.reinitializations > 0  # the loop ran _install again
    if selection is not None:
        assert columnar_init["fp"] or columnar_init["fn"]


# ----------------------------------------------------------------------
# Selection: one argsort equals sorted() over a per-stream key
# ----------------------------------------------------------------------
BOUNDS = [
    FilterConstraint(10.0, 20.0),
    FilterConstraint(15.0, 15.0),
    FilterConstraint(-np.inf, 12.0),
    FALSE_POSITIVE_FILTER,
    FALSE_NEGATIVE_FILTER,
]
#: A small grid, so ties and values exactly on the bounds are common.
VALUES = st.sampled_from([5.0, 10.0, 12.0, 15.0, 17.5, 20.0, 25.0, 30.0, -0.0])


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(st.integers(0, 400), VALUES, max_size=40),
    st.sampled_from(BOUNDS),
)
def test_boundary_nearest_order_is_the_sorted_key_order(candidates, bound):
    ids = np.array(sorted(candidates), dtype=np.int64)
    payloads = np.array([candidates[i] for i in ids.tolist()])
    expected = SortedBoundaryNearest().select(candidates, len(candidates), bound)
    got = BoundaryNearestSelection().order(ids, payloads, bound)
    assert got.tolist() == expected


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(0, 10_000), unique=True, max_size=60),
    st.integers(0, 2**32 - 1),
)
def test_random_order_shuffles_an_array_as_it_shuffled_the_list(ids, seed):
    ids = sorted(ids)
    expected = ListRandom(seed).select(dict.fromkeys(ids, 0.0), len(ids), None)
    got = RandomSelection(seed).order(
        np.array(ids, dtype=np.int64), np.zeros(len(ids)), None
    )
    assert got.tolist() == expected


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from([0.0, 1.0, 2.5, 4.0]), st.sampled_from([0.0, 3.0])),
        max_size=25,
    ),
    st.sampled_from(
        [BallRegion([1.0, 1.0], 1.5), BoxRegion([0.0, 0.0], [2.5, 3.0]), ALL_SPACE]
    ),
)
def test_region_distances_are_the_rowwise_ones(points, region):
    points = np.array(points, dtype=np.float64).reshape(len(points), 2)
    expected = [region.boundary_distance(p) for p in points]
    assert region.boundary_distances(points).tolist() == expected
    ids = np.arange(len(points))
    got = BoundaryNearestSelection().order(ids, points, region)
    candidates = dict(enumerate(points))
    expected = SortedBoundaryNearest().select(candidates, len(points), region)
    assert got.tolist() == expected
