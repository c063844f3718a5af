"""No per-stream Python objects, pinned by count (DESIGN.md §18).

The scalar population is five planes plus one range binding per
channel, so assembling a session must cost a constant number of Python
objects whatever the population — and a run at n = 100 000 must still
be the run: one ledger across topologies, equal to per-event replay's.
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
