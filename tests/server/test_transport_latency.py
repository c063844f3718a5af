"""``parallel=True`` is a permission: which cells take worker processes.

The engine builds the shard transport for exactly one cell of the
deployment space — sharded, synchronous delivery, no checking.  A
latency model or a tolerance checker is coordinator work either way, so
``Deployment.sharded(n, parallel=True, latency=m | check_every=c)``
compiles onto the sequential sharded session it used to be proven
byte-identical to across a pipe (DESIGN.md §17).

The contract this suite pins, over the grid the cross-process latency
replay was tested on (protocols x shard counts x replay modes, the
lively end-of-run-drain regime, a checking cell) plus one synchronous
checking cell per vocabulary: the routed run returns the sibling's
ledger, answer, checks, violation lines and inherent / protocol-bug
split, reports the sibling's ``topology``, carries no transport
counters, and builds no process.  One cell per vocabulary shows the
permission still being taken, and a source scan keeps the second
latency engine from growing back under another name.
"""

import dataclasses
import inspect
import re
from pathlib import Path

import pytest

import repro
from repro.api import Deployment, Engine, QuerySpec, Workload
from repro.network.latency import (
    ExponentialLatency,
    FixedLatency,
    UniformLatency,
)
from repro.queries.knn import KnnQuery, TopKQuery
from repro.runtime.vocabulary import Vocabulary
from repro.server.transport import ShardWorker, TransportShardedServer
from repro.spatial.queries import SpatialKnnQuery
from repro.tolerance.rank_tolerance import RankTolerance
from replay_forcing import run_forced

SCALAR_WORKLOAD = Workload.synthetic(n_streams=100, horizon=30.0, seed=7)
SPATIAL_WORKLOAD = Workload.moving_objects(n_objects=60, horizon=40.0, seed=3)

#: One coupled protocol per family — the full protocol sweep on the
#: transport proper lives in ``test_transport.py``.
SPECS = {
    "rtp": QuerySpec(
        protocol="rtp",
        query=TopKQuery(k=5),
        tolerance=RankTolerance(k=5, r=3),
    ),
    "zt-rp": QuerySpec(protocol="zt-rp", query=KnnQuery(q=500.0, k=5)),
    "zt-rp-2d": QuerySpec(
        protocol="zt-rp-2d", query=SpatialKnnQuery((500.0, 500.0), 5)
    ),
}

#: Each protocol exercises a different model family.
MODELS = {
    "rtp": FixedLatency(uplink=0.4, downlink=0.25),
    "zt-rp": ExponentialLatency(0.3, 0.05, seed=5),
    "zt-rp-2d": UniformLatency(0.05, 0.6, seed=11),
}


def _workload(protocol):
    return SPATIAL_WORKLOAD if protocol.endswith("-2d") else SCALAR_WORKLOAD


@pytest.fixture
def no_processes(monkeypatch):
    """Any attempt to spawn shard workers fails the test."""

    def launch(self):
        raise AssertionError("a routed cell launched the shard transport")

    monkeypatch.setattr(TransportShardedServer, "launch", launch)


def _violation_split(report) -> dict:
    """The inherent / protocol-bug counts of a classified run."""
    return {
        key: value
        for key, value in report.extras.items()
        if key.startswith("violations_")
    }


def assert_routed_to_sibling(spec, workload, n_shards, **knobs):
    """``sharded(n, parallel=True, **knobs)`` is ``sharded(n, **knobs)``."""
    engine = Engine()
    sibling = engine.run(spec, workload, Deployment.sharded(n_shards, **knobs))
    routed = engine.run(
        spec, workload, Deployment.sharded(n_shards, parallel=True, **knobs)
    )
    assert routed.ledger == sibling.ledger
    assert routed.final_answer == sibling.final_answer
    assert routed.checks == sibling.checks
    assert routed.violations == sibling.violations
    assert routed.checker == sibling.checker
    assert _violation_split(routed) == _violation_split(sibling)
    assert "transport" not in routed.extras["replay"]
    assert routed.extras["replay"]["kernel"] != "transport"
    assert routed.topology == sibling.topology
    assert "+transport" not in routed.topology
    return routed


# ----------------------------------------------------------------------
# Routed: a latency model
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", ["event", "batch"])
@pytest.mark.parametrize("n_shards", [2, 4])
@pytest.mark.parametrize("protocol", sorted(SPECS))
def test_latency_cells_run_the_sequential_sibling(
    no_processes, protocol, n_shards, mode
):
    routed = run_forced(
        mode,
        lambda: assert_routed_to_sibling(
            SPECS[protocol],
            _workload(protocol),
            n_shards,
            latency=MODELS[protocol],
        ),
    )
    assert routed.topology == f"sharded({n_shards})+latency"


#: The lively regime: at sigma=150 with delays of several time units,
#: installs are still in flight at the horizon and the forced drain
#: provokes self-corrections under a frozen clock.  Only RTP attaches
#: beliefs to deploys, so only RTP sees it.
LIVELY = {"sigma": 150.0, "mean_interarrival": 8.0, "horizon": 60.0}
LIVELY_SPECS = {
    "rtp": SPECS["rtp"],
    "rtp-2d": QuerySpec(
        protocol="rtp-2d",
        query=SpatialKnnQuery((500.0, 500.0), 5),
        tolerance=RankTolerance(k=5, r=3),
    ),
}


@pytest.mark.parametrize("seed", [3, 7])
@pytest.mark.parametrize("protocol", sorted(LIVELY_SPECS))
def test_lively_drain_cells_run_the_sequential_sibling(
    no_processes, protocol, seed
):
    if protocol.endswith("-2d"):
        workload = Workload.moving_objects(n_objects=60, seed=seed, **LIVELY)
    else:
        workload = Workload.synthetic(n_streams=60, seed=seed, **LIVELY)
    assert_routed_to_sibling(
        LIVELY_SPECS[protocol],
        workload,
        2,
        latency=UniformLatency(1, 8, seed=1),
    )


def test_zero_delay_counts_as_a_latency_model(no_processes):
    # ``latency=0`` selects the latency machinery with inline delivery;
    # its differential value is proven in-process
    # (tests/network/test_latency_equivalence.py), not across a pipe.
    routed = assert_routed_to_sibling(
        SPECS["rtp"], SCALAR_WORKLOAD, 2, latency=0
    )
    assert routed.topology == "sharded(2)+latency"


# ----------------------------------------------------------------------
# Routed: a checker
# ----------------------------------------------------------------------
def test_checking_under_latency_runs_the_sequential_sibling(no_processes):
    routed = assert_routed_to_sibling(
        SPECS["rtp"],
        SCALAR_WORKLOAD,
        2,
        check_every=5,
        latency=FixedLatency(uplink=0.4, downlink=0.25),
    )
    assert routed.checks > 0
    assert "violations_protocol_bug" in routed.extras


@pytest.mark.parametrize("protocol", ["rtp", "zt-rp-2d"])
def test_synchronous_checking_runs_the_sequential_sibling(
    no_processes, protocol
):
    routed = assert_routed_to_sibling(
        SPECS[protocol], _workload(protocol), 2, check_every=5
    )
    assert routed.checks > 0
    assert routed.topology == "sharded(2)"


# ----------------------------------------------------------------------
# Taken: synchronous, unchecked
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", ["rtp", "zt-rp-2d"])
def test_the_synchronous_unchecked_cell_takes_the_transport(protocol):
    engine = Engine()
    workload = _workload(protocol)
    sibling = engine.run(SPECS[protocol], workload, Deployment.sharded(2))
    taken = engine.run(
        SPECS[protocol], workload, Deployment.sharded(2, parallel=True)
    )
    assert taken.extras["replay"]["kernel"] == "transport"
    assert taken.extras["replay"]["transport"]["workers"] == 2
    assert taken.topology == "sharded(2)+transport"
    assert sibling.topology == "sharded(2)"
    assert taken.ledger == sibling.ledger
    assert taken.final_answer == sibling.final_answer


def test_the_fanout_stamps_its_report_too():
    spec = QuerySpec(protocol="zt-nrp", query=repro.RangeQuery(400.0, 600.0))
    report = Engine().run(
        spec, SCALAR_WORKLOAD, Deployment.sharded(2, parallel=True)
    )
    assert report.topology == "sharded(2)+fanout"
    delayed = Engine().run(
        spec, SCALAR_WORKLOAD, Deployment.sharded(2, parallel=True, latency=0.5)
    )
    assert delayed.topology == "sharded(2)+latency+fanout"


# ----------------------------------------------------------------------
# The second latency engine stays deleted
# ----------------------------------------------------------------------
SRC = Path(repro.__file__).parent

#: Every name that existed only to replay a latency model or a checker
#: across a pipe (ISSUE 20's acceptance grep; the engine-event
#: ``_deliver_due`` is the in-process channel and stays).
DELETED = re.compile(
    r"InFlightPlane|_PlaneEntry|in_flight_plane|external_delivery"
    r"|extract_in_flight|acknowledge_extracted|pending_after"
    r"|next_delivery_key|\bdeliver_due\b|advance_time|_drain_remaining"
    r"|_deliver_plane_group|_collect_aux|pack_in_flight|pack_pending"
    r"|PointInFlightFrame|coordination_clock"
)


def test_no_source_file_names_the_in_flight_plane():
    hits = [
        f"{path.relative_to(SRC)}:{number}: {line.strip()}"
        for path in sorted(SRC.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if DELETED.search(line)
    ]
    assert hits == []
    assert not (SRC / "network" / "frames.py").exists()


def test_the_surface_that_is_left():
    assert set(ShardWorker.OPS) == {
        "scan", "advance", "dispatch", "probe", "probe_batch",
        "deploy_batch", "finish",
    }
    assert list(inspect.signature(TransportShardedServer.__init__).parameters) == [
        "self", "trace", "protocol", "n_shards",
    ]
    assert list(inspect.signature(TransportShardedServer.replay).parameters) == [
        "self", "horizon",
    ]
    assert len(dataclasses.fields(Vocabulary)) == 15
    assert [field.name for field in dataclasses.fields(Deployment)] == [
        "topology", "n_shards", "check_every", "strict", "parallel",
        "latency", "durable",
    ]
    import repro.network.latency as latency

    for _, klass in inspect.getmembers(latency, inspect.isclass):
        assert "is_zero" not in vars(klass)
