"""No per-stream Python objects, pinned by count (DESIGN.md §18, §20).

Every stack's population is planes plus one range binding per channel,
so assembling a session must cost a constant number of Python objects
whatever the population — and a run at n = 100 000 must still be the
run: one ledger across topologies, equal to per-event replay's.
"""

from __future__ import annotations

import gc
import sys

import numpy as np
import pytest

import repro
from repro.api import Deployment, Engine, QuerySpec, Workload
from repro.network.accounting import MessageLedger
from repro.network.channel import Channel
from repro.runtime.replay import ReplayCursor
from repro.runtime.session import ExecutionSession
from repro.sim.engine import SimulationEngine
from repro.streams.source import StreamSource

N = 100_000
#: A short horizon: ~10 000 records over the 100 000 streams.
WORKLOAD = Workload.synthetic(n_streams=N, horizon=2.0, seed=1)
SPECS = {
    "ft-nrp": QuerySpec(
        "ft-nrp", repro.RangeQuery(400.0, 600.0), repro.FractionTolerance(0.2, 0.2)
    ),
    "rtp": QuerySpec("rtp", repro.TopKQuery(10), repro.RankTolerance(10, 5)),
}


@pytest.mark.parametrize("n_shards", [None, 2], ids=["single", "sharded(2)"])
def test_assembly_allocates_no_per_stream_object(n_shards):
    """Seven blocks per stream before the population was columns
    (699 787 single, 699 833 sharded at this n); now the planes, the
    table and a handful of session objects."""
    trace = WORKLOAD.materialize()
    protocol = SPECS["rtp"].build()
    before = sys.getallocatedblocks()
    session = ExecutionSession.assemble("streams", trace, protocol, n_shards)
    assert sys.getallocatedblocks() - before < 20_000
    assert len(session.sources) == N
    for channel in session.channels:
        # One handler for the channel's whole id range, not one per id.
        assert channel._source_handlers == {}
        assert len(channel._source_ranges) == 1
    assert sum(channel.n_sources for channel in session.channels) == N
    assert session.sources[N - 1].stream_id == N - 1


#: The other three stacks' assemblies at the same n.
MOVING = Workload.moving_objects(n_objects=N, horizon=0.5, seed=1)


def _spatial(n_shards):
    from repro.spatial.geometry import BoxRegion
    from repro.spatial.queries import SpatialRangeQuery

    spec = QuerySpec(
        "zt-nrp-2d", SpatialRangeQuery(BoxRegion([300.0, 300.0], [700.0, 700.0]))
    )
    return ExecutionSession.assemble(
        "spatial", MOVING.materialize(), spec.build(), n_shards
    )


def _windows(n_shards):
    return ExecutionSession.for_windows_sharded(
        WORKLOAD.materialize(), 25.0, n_shards
    )


def _multiquery(_):
    session = ExecutionSession.for_multiquery(WORKLOAD.materialize().initial_values)
    for query_id, spec in SPECS.items():
        session.host.register(query_id, spec.build())
    return session


@pytest.mark.parametrize(
    "assemble,n_shards",
    [(_spatial, None), (_spatial, 2), (_windows, None), (_windows, 2),
     (_multiquery, None)],
    ids=["spatial", "spatial-sharded(2)", "value-window",
         "value-window-sharded(2)", "multi-query"],
)
def test_every_stack_assembles_without_a_per_stream_object(assemble, n_shards):
    """One source object plus one membership object per stream, and one
    channel binding each, before these stacks were populations too."""
    MOVING.materialize()
    WORKLOAD.materialize()
    # An earlier test's garbage, collected mid-assembly, would hide blocks.
    gc.collect()
    before = sys.getallocatedblocks()
    session = assemble(n_shards)
    assert sys.getallocatedblocks() - before < 20_000
    assert len(session.sources) == N
    for channel in session.channels:
        assert channel._source_handlers == {}
        assert len(channel._source_ranges) == 1
    assert session.sources[N - 1].stream_id == N - 1


@pytest.mark.parametrize("protocol", sorted(SPECS))
def test_one_ledger_at_population_scale(protocol):
    spec = SPECS[protocol]
    reference = Engine().run(spec, WORKLOAD, Deployment.single(replay_mode="event"))
    assert reference.extras["replay"]["dispatches"] == reference.n_records
    for deployment in (
        Deployment.single(),
        Deployment.sharded(2),
        Deployment.sharded(2, parallel=True),
    ):
        report = Engine().run(spec, WORKLOAD, deployment)
        assert report.ledger == reference.ledger, deployment.describe()
        assert report.final_answer == reference.final_answer


@pytest.mark.parametrize(
    "deployment", [Deployment.single(), Deployment.sharded(2)],
    ids=["single", "sharded(2)"],
)
@pytest.mark.parametrize("protocol", sorted(SPECS))
def test_a_finished_run_leaves_its_planes_to_no_cycle_collector(
    protocol, deployment
):
    """A run is now a few dozen objects holding megabytes of planes, far
    too few to ever trip the (object-counting) collector: were they
    still in reference cycles — channel <-> population, channel <->
    host, table <-> rank view, sharded host <-> its shards — a loop of
    runs would pile them up.  ``ExecutionSession.close`` unwires them
    when the run ends."""
    workload = Workload.synthetic(n_streams=2_000, horizon=20.0, seed=2)
    workload.materialize()
    gc.collect()
    gc.disable()
    try:
        Engine().run(SPECS[protocol], workload, deployment)
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        left = {
            type(found).__name__
            for found in gc.garbage
            if type(found).__module__.startswith("repro.")
        }
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
        gc.collect()
    assert left == set()


def test_a_cursor_refuses_a_population_whose_rows_are_not_its_ids():
    """Row planes are indexed by stream id on the replay path."""
    channel = Channel(MessageLedger())
    offset = StreamSource(3, 0.0, channel)._population
    with pytest.raises(ValueError, match="rows must be its ids"):
        ReplayCursor(
            np.zeros(1), np.array([3]), np.zeros(1), sources=offset,
            tables=[], channels=[channel], engine=SimulationEngine(),
        )
