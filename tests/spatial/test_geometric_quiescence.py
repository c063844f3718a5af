"""Property tests for the conservative-bbox quiescence contract.

The geometric plane's soundness rests on one-sided containment: a point
the inner (inscribed) bbox claims is *inside* must be inside by exact
geometry, and a point the outer (circumscribed) bbox claims is *outside*
must be outside.  Consequently
:meth:`~repro.state.table.StreamStateTable.geometric_quiescence_mask`
may only say "quiescent" when exact geometry agrees the membership did
not flip — never the other way around.  These tests hammer that claim
with random rectangular, circular, and composite regions over random
points, including points deliberately concentrated near the boundaries
where floating-point round-off lives.
"""

import numpy as np
import pytest

from repro.network.accounting import MessageLedger
from repro.network.channel import Channel
from repro.spatial.geometry import (
    ALL_SPACE,
    EMPTY_REGION,
    BallRegion,
    BoxRegion,
    UnionRegion,
)
from repro.spatial.messages import PointProbeRequestMessage, RegionConstraintMessage
from repro.spatial.source import PointPopulation
from repro.state.table import StreamStateTable


def _random_box(rng, dimension):
    lows = rng.uniform(-50.0, 50.0, size=dimension)
    return BoxRegion(lows, lows + rng.uniform(0.1, 60.0, size=dimension))


def _random_ball(rng, dimension):
    center = rng.uniform(-50.0, 50.0, size=dimension)
    return BallRegion(center, float(rng.uniform(0.1, 40.0)))


def _random_union(rng, dimension):
    members = [
        (_random_box if rng.random() < 0.5 else _random_ball)(rng, dimension)
        for _ in range(int(rng.integers(2, 4)))
    ]
    return UnionRegion(members)


def _random_points(rng, region, dimension, count):
    """Uniform points plus a cluster hugging the region's boundary."""
    points = rng.uniform(-120.0, 120.0, size=(count, dimension))
    if isinstance(region, BallRegion):
        directions = rng.normal(size=(count, dimension))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        radii = region.radius * (1.0 + rng.normal(0.0, 1e-7, size=(count, 1)))
        near = region.center + directions * radii
    elif isinstance(region, BoxRegion):
        near = rng.uniform(region.lows, region.highs, size=(count, dimension))
        edge = rng.integers(0, dimension, size=count)
        side = rng.random(count) < 0.5
        jitter = rng.normal(0.0, 1e-7, size=count)
        near[np.arange(count), edge] = np.where(
            side, region.lows[edge], region.highs[edge]
        ) * (1.0 + jitter)
    else:
        near = rng.uniform(-120.0, 120.0, size=(count, dimension))
    return np.concatenate([points, near])


REGION_MAKERS = {
    "box": _random_box,
    "ball": _random_ball,
    "union": _random_union,
}


@pytest.mark.parametrize("kind", sorted(REGION_MAKERS))
@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_bboxes_are_one_sided_bounds(kind, dimension):
    rng = np.random.default_rng(hash((kind, dimension)) % 2**32)
    for _ in range(20):
        region = REGION_MAKERS[kind](rng, dimension)
        boxes = region.quiescence_bboxes(dimension)
        assert boxes is not None
        inner_lo, inner_hi, outer_lo, outer_hi = boxes
        points = _random_points(rng, region, dimension, 200)
        in_inner = np.all(points >= inner_lo, axis=1) & np.all(
            points <= inner_hi, axis=1
        )
        out_outer = np.any(points < outer_lo, axis=1) | np.any(
            points > outer_hi, axis=1
        )
        for point, inner, outer in zip(points, in_inner, out_outer):
            if inner:
                assert region.contains(point), (
                    f"{region!r}: inner bbox claimed {point} inside"
                )
            if outer:
                assert not region.contains(point), (
                    f"{region!r}: outer bbox claimed {point} outside"
                )


@pytest.mark.parametrize("kind", sorted(REGION_MAKERS))
def test_quiescence_mask_never_contradicts_exact_geometry(kind):
    """The acceptance property: the mask may only claim quiescence the
    exact per-event geometry would also reach (membership unchanged)."""
    dimension = 2
    rng = np.random.default_rng(hash(kind) % 2**32 + 1)
    for round_index in range(10):
        n = 40
        table = StreamStateTable(n)
        regions = [REGION_MAKERS[kind](rng, dimension) for _ in range(n)]
        starts = rng.uniform(-120.0, 120.0, size=(n, dimension))
        for i, region in enumerate(regions):
            believed = region.contains(starts[i])
            table.record_region_deploy(
                i, *region.quiescence_bboxes(dimension)
            )
            table.set_inside(i, believed)
        moves = np.concatenate(
            [
                _random_points(rng, regions[0], dimension, 20),
                rng.uniform(-120.0, 120.0, size=(n, dimension)),
            ]
        )
        ids = rng.integers(0, n, size=len(moves))
        mask = table.geometric_quiescence_mask(moves, ids)
        for point, stream_id, quiescent in zip(moves, ids, mask):
            if quiescent:
                region = regions[stream_id]
                assert region.contains(point) == bool(
                    table.inside[stream_id]
                ), (
                    f"{region!r}: mask claimed quiescence for {point} but "
                    "exact geometry flips the membership"
                )


def test_silencer_regions_are_always_quiescent():
    table = StreamStateTable(2)
    table.record_region_deploy(0, *ALL_SPACE.quiescence_bboxes(2))
    table.set_inside(0, True)  # deployment belief: contains everything
    table.record_region_deploy(1, *EMPTY_REGION.quiescence_bboxes(2))
    table.set_inside(1, False)  # deployment belief: contains nothing
    points = np.array([[1e6, -1e6], [0.0, 0.0]])
    assert table.geometric_quiescence_mask(
        points, np.array([0, 0])
    ).all()
    assert table.geometric_quiescence_mask(
        points, np.array([1, 1])
    ).all()


def test_unscannable_rows_are_never_claimed():
    table = StreamStateTable(3)
    table.record_region_deploy(1, [0.0, 0.0], [1.0, 1.0])
    table.set_inside(1, True)
    mask = table.geometric_quiescence_mask(
        np.full((3, 2), 0.5), np.arange(3)
    )
    assert mask.tolist() == [False, True, False]


def test_conservative_shell_falls_back_to_per_event():
    """Points between the ball's inner and outer boxes are undecided."""
    ball = BallRegion([0.0, 0.0], 10.0)
    table = StreamStateTable(1)
    table.record_region_deploy(0, *ball.quiescence_bboxes(2))
    table.set_inside(0, True)
    # Inside the ball but outside the inscribed cube (corner shell).
    shell_point = np.array([[8.0, 5.0]])
    assert ball.contains(shell_point[0])
    assert not table.geometric_quiescence_mask(shell_point, [0])[0]
    # Deep inside the inscribed cube: decided columnar-side.
    assert table.geometric_quiescence_mask(np.array([[1.0, 1.0]]), [0])[0]


def test_point_population_writes_through_to_the_table():
    channel = Channel(MessageLedger())
    reports = []
    channel.bind_server(reports.append)
    population = PointPopulation([[5.0, 5.0]], [channel], [(0, 1)])
    table = StreamStateTable(1)
    population.bind_state(table)
    assert not table.geo_scannable[0]

    box = BoxRegion([0.0, 0.0], [10.0, 10.0])
    channel.send_to_source(RegionConstraintMessage(0, 0.0, region=box))
    assert table.geo_scannable[0]
    assert table.inside[0]
    assert np.array_equal(table.geo_lower[0], [0.0, 0.0])
    assert np.array_equal(table.geo_outer_upper[0], [10.0, 10.0])

    # A membership flip reports and updates the believed side.
    population.apply(0, np.array([20.0, 5.0]), 1.0)
    assert len(reports) == 1
    assert not table.inside[0]
    # Resync after a probe realigns the belief.
    population.values[0] = [5.0, 5.0]
    channel.send_to_source(PointProbeRequestMessage(0, 2.0))
    assert table.inside[0]
    # A region with no boxes clears the row: its records dispatch.
    channel.send_to_source(
        RegionConstraintMessage(0, 3.0, region=_NoBoxes(), assumed_inside=True)
    )
    assert not table.geo_scannable[0]
    assert table.inside[0]


class _NoBoxes(BoxRegion):
    """A box that declines to bound itself with quiescence boxes."""

    def __init__(self):
        super().__init__([0.0, 0.0], [10.0, 10.0])

    def quiescence_bboxes(self, dimension):
        return None


def test_quiescent_records_batch_identically_to_per_event():
    """End to end: the AABB pre-scan's ledger equals per-event replay."""
    from repro.api import Deployment, Engine, QuerySpec, Workload
    from repro.spatial.queries import SpatialRangeQuery

    workload = Workload.moving_objects(
        n_objects=60, horizon=150.0, sigma=6.0, seed=9
    )
    spec = QuerySpec(
        "zt-nrp-2d",
        SpatialRangeQuery(BoxRegion([300.0, 300.0], [700.0, 700.0])),
    )
    reports = {
        mode: Engine().run(spec, workload, Deployment.single(replay_mode=mode))
        for mode in ("event", "batch")
    }
    assert reports["batch"].extras["replay"]["staged"] > 0
    assert reports["batch"].ledger == reports["event"].ledger
