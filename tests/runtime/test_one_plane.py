"""One plane per fact (DESIGN.md §21).

A bound population's filter planes are views of its state table's
columns, so install is the only writer of the table's filter planes:
there is no second copy to keep equal, and under a latency model a row
whose constraint is still in flight reads the filter its source holds.
"""

from __future__ import annotations

import gc
import math
import tracemalloc

import numpy as np
import pytest

import repro
from repro.api import QuerySpec, Workload
from repro.multiquery import QueryGroup
from repro.network.accounting import MessageLedger
from repro.network.channel import Channel
from repro.network.latency import FixedLatency
from repro.runtime.session import ExecutionSession
from repro.spatial.geometry import BoxRegion, Region
from repro.spatial.messages import RegionConstraintMessage
from repro.spatial.queries import SpatialRangeQuery
from repro.spatial.source import PointPopulation
from repro.state.table import StreamStateTable

RANGE = QuerySpec(
    "ft-nrp", repro.RangeQuery(400.0, 600.0), repro.FractionTolerance(0.2, 0.2)
)
SMALL = Workload.synthetic(n_streams=64, horizon=2.0, seed=3)


def _shares(plane, column) -> bool:
    """*plane* is a view of *column*'s leading rows."""
    return np.shares_memory(plane, column) and np.array_equal(
        plane, column[: len(plane)]
    )


def _scalar():
    session = ExecutionSession.for_streams(SMALL.materialize(), RANGE.build())
    session.initialize(0.0)
    return session.sources, session.host.state


def _window():
    spec = QuerySpec("value-eps", repro.TopKQuery(5), options={"eps": 25.0})
    session = ExecutionSession.assemble("streams", SMALL.materialize(), spec.build())
    return session.sources, session.host.state


SCALAR_PLANES = {
    "lower": "lower",
    "upper": "upper",
    "filtered": "scannable",
    "inside": "inside",
}


@pytest.mark.parametrize("assemble", [_scalar, _window], ids=["scalar", "window"])
def test_interval_planes_are_the_tables_columns(assemble):
    population, table = assemble()
    for plane, column in SCALAR_PLANES.items():
        assert _shares(getattr(population, plane), getattr(table, column)), plane
    # A population write is a table write, and the other way round.
    population.lower[3] = -7.0
    assert table.lower[3] == -7.0
    table.inside[5] = not table.inside[5]
    assert population.inside[5] == table.inside[5]


def test_point_planes_are_the_tables_columns():
    spec = QuerySpec(
        "zt-nrp-2d", SpatialRangeQuery(BoxRegion([300.0, 300.0], [700.0, 700.0]))
    )
    trace = Workload.moving_objects(n_objects=32, horizon=1.0, seed=3).materialize()
    session = ExecutionSession.for_spatial(trace, spec.build())
    session.initialize(0.0)
    population, table = session.sources, session.host.state
    assert _shares(population.inside, table.inside)
    assert _shares(population.regions, table.containers)
    assert population.regions[0] is not None


def test_slot_planes_are_their_querys_columns():
    top = QuerySpec("rtp", repro.TopKQuery(5), repro.RankTolerance(5, 2))
    group = QueryGroup(
        {
            query_id: (spec.build(), spec.query, spec.tolerance)
            for query_id, spec in (("range", RANGE), ("top", top))
        }
    )
    session = ExecutionSession.assemble("streams", SMALL.materialize(), group)
    session.initialize(0.0)
    population = session.sources
    assert set(population.slots) == {"range", "top"}
    for query_id, slot in population.slots.items():
        table = session.host.contexts[query_id].state
        assert slot.table is table
        for plane in ("lower", "upper", "inside"):
            assert _shares(getattr(slot, plane), getattr(table, plane)), plane


def test_a_row_in_flight_reads_its_installed_filter():
    """The server no longer writes the bounds it deploys: until the
    constraint lands, the table row is the source's filter (none yet),
    and the cursor treats the row as in flight."""
    trace = SMALL.materialize()
    spec = QuerySpec("zt-nrp", repro.RangeQuery(400.0, 600.0))
    session = ExecutionSession.for_streams(
        trace, spec.build(), latency=FixedLatency(0.0, 2.0)
    )
    session.initialize(0.0)
    (channel,) = session.latency_channels
    population, table = session.sources, session.host.state
    assert channel.in_flight_count == trace.n_streams  # one constraint each
    assert not table.scannable.any() and not population.filtered.any()
    assert np.all(table.lower == -math.inf) and np.all(table.upper == math.inf)
    session.engine.run(until=2.0)
    assert channel.in_flight_count == 0
    assert table.scannable.all()
    assert np.all(table.lower == 400.0) and np.all(table.upper == 600.0)
    assert _shares(population.lower, table.lower)


class _BoxlessDisc(Region):
    """A region that cannot bound itself with boxes."""

    def contains(self, point) -> bool:
        return float(np.hypot(*point)) <= 1.0

    def boundary_distance(self, point) -> float:
        return abs(float(np.hypot(*point)) - 1.0)


@pytest.mark.parametrize("installed", ["before binding", "after binding"])
def test_a_boxless_region_keeps_its_believed_side(installed):
    """Writing a box-less region's row of the geometric plane clears it,
    which resets the table's ``inside``: the believed side is written
    after the boxes, whether binding or install writes them."""
    channel = Channel(MessageLedger())
    population = PointPopulation([[0.0, 0.0]], [channel], [(0, 1)])
    table = StreamStateTable(1)
    if installed == "after binding":
        population.bind_state(table)
    channel.send_to_source(RegionConstraintMessage(0, 0.0, _BoxlessDisc(), True))
    if installed == "before binding":
        population.bind_state(table)
    assert not table.geo_scannable[0]
    assert table.inside[0] and population.inside[0]
    assert _shares(population.inside, table.inside)


def test_a_bound_population_stores_each_filter_fact_once():
    """Assembling n = 100 000 scalar streams retains the population's
    value plane and the table: 66 bytes per stream when the population
    kept its own four filter planes beside the table's, 48 now."""
    n = 100_000
    trace = Workload.synthetic(n_streams=n, horizon=2.0, seed=1).materialize()
    protocol = RANGE.build()
    gc.collect()
    tracemalloc.start()
    try:
        session = ExecutionSession.for_streams(trace, protocol)
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(session.sources) == n
    assert current / n <= 55
