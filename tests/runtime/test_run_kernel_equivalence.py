"""The dispatch kernel's differential contract (DESIGN.md §9).

The run-based kernel (and its fully-columnar specialization) may change
*when* work happens, never *what* is observable: ledger snapshots and
final answers must be byte-identical to per-event replay across

    {event, batch} × {single, sharded(2)} × {synchronous, latency=0}

for all five scalar protocols and all six ``-2d`` spatial protocols.
The fixed grid runs on a dispatch-heavy workload (large sigma — the
regime the kernel was built for, where it takes the crossing paths
constantly); a seeded hypothesis suite then drives adversarial traces
with arbitrary jumps through the representative kernels (columnar,
columnar with reactions — FT-NRP's stop-and-resume path — run-heap,
bailout).  For the two ``columnar_maintenance`` protocols the batch and
event strategies are also compared below the ledger: host clock, every
source's value and belief, the table's value / report-time / believed
columns.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Deployment, Engine, QuerySpec, Workload
from repro.queries.knn import KnnQuery, TopKQuery
from repro.queries.range_query import RangeQuery
from repro.spatial.geometry import BoxRegion
from repro.runtime.session import ExecutionSession
from repro.spatial.queries import SpatialKnnQuery, SpatialRangeQuery
from repro.streams.trace import StreamTrace
from repro.tolerance.fraction_tolerance import FractionTolerance
from repro.tolerance.rank_tolerance import RankTolerance
from replay_forcing import run_forced

#: The five scalar protocols, sized for a 40-stream population.
SCALAR_SPECS = {
    "zt-nrp": QuerySpec(protocol="zt-nrp", query=RangeQuery(400.0, 600.0)),
    "ft-nrp": QuerySpec(
        protocol="ft-nrp",
        query=RangeQuery(400.0, 600.0),
        tolerance=FractionTolerance(0.2, 0.2),
    ),
    "rtp": QuerySpec(
        protocol="rtp",
        query=TopKQuery(k=5),
        tolerance=RankTolerance(k=5, r=3),
    ),
    "zt-rp": QuerySpec(protocol="zt-rp", query=KnnQuery(q=500.0, k=5)),
    "ft-rp": QuerySpec(
        protocol="ft-rp",
        query=KnnQuery(q=500.0, k=5),
        tolerance=FractionTolerance(0.2, 0.2),
    ),
}

QUERY_BOX = BoxRegion([300.0, 300.0], [700.0, 700.0])
CENTER = (500.0, 500.0)

#: All six spatial protocols, sized for a 40-object population.
SPATIAL_SPECS = {
    "no-filter-2d": QuerySpec(
        protocol="no-filter-2d", query=SpatialRangeQuery(QUERY_BOX)
    ),
    "zt-nrp-2d": QuerySpec(
        protocol="zt-nrp-2d", query=SpatialRangeQuery(QUERY_BOX)
    ),
    "ft-nrp-2d": QuerySpec(
        protocol="ft-nrp-2d",
        query=SpatialRangeQuery(QUERY_BOX),
        tolerance=FractionTolerance(0.2, 0.2),
    ),
    "rtp-2d": QuerySpec(
        protocol="rtp-2d",
        query=SpatialKnnQuery(CENTER, 5),
        tolerance=RankTolerance(k=5, r=3),
    ),
    "zt-rp-2d": QuerySpec(
        protocol="zt-rp-2d", query=SpatialKnnQuery(CENTER, 5)
    ),
    "ft-rp-2d": QuerySpec(
        protocol="ft-rp-2d",
        query=SpatialKnnQuery(CENTER, 5),
        tolerance=FractionTolerance(0.2, 0.2),
    ),
}

#: Dispatch-heavy regimes: big jumps, so the kernel crosses constantly.
SCALAR_WORKLOAD = Workload.synthetic(
    n_streams=40, horizon=40.0, sigma=150.0, seed=7
)
SPATIAL_WORKLOAD = Workload.moving_objects(
    n_objects=40, horizon=60.0, sigma=60.0, seed=7
)

GRID = [
    (n_shards, mode, latency)
    for n_shards in (1, 2)
    for mode in ("event", "batch")
    for latency in (None, 0.0)
]


def _run(spec, workload, n_shards, mode, latency):
    """One grid cell: the run on that topology, replay forced to *mode*."""
    if n_shards == 1:
        deployment = Deployment.single(latency=latency)
    else:
        deployment = Deployment.sharded(n_shards, latency=latency)
    return run_forced(mode, lambda: Engine().run(spec, workload, deployment))


def _session_outcome(spec, trace, n_shards, mode, **bounds):
    """Everything a replay leaves behind, and its stats."""
    session = ExecutionSession.assemble("streams", trace, spec.build(), n_shards)
    session.initialize()
    session.replay_trace(trace, mode=mode, **bounds)
    table = session.host.state
    outcome = {
        "ledger": session.snapshot(),
        "answer": session.host.protocol.answer,
        "host.now": session.host.now,
        "source values": [source.value for source in session.sources],
        "source beliefs": [
            source.membership.reported_inside for source in session.sources
        ],
        "table.values": table.values.tolist(),
        "table.report_time": table.report_time.tolist(),
        "table.inside": table.inside.tolist(),
    }
    return outcome, session.last_replay_stats


def _assert_columnar_leaves_the_event_state(spec, trace, **bounds):
    """Batch (the columnar kernel) vs event, single and sharded(2)."""
    for n_shards in (None, 2):
        event, _ = _session_outcome(spec, trace, n_shards, "event")
        batch, stats = _session_outcome(spec, trace, n_shards, "batch", **bounds)
        assert stats["kernel"] == "columnar", stats["columnar_declined"]
        assert stats["staged"] + stats["dispatches"] == trace.n_records
        for key in event:
            assert batch[key] == event[key], f"shards={n_shards}: {key}"
    return stats


def _assert_grid_collapses(spec, workload):
    if getattr(spec.build(), "columnar_maintenance", False) and (
        spec.stack == "streams"
    ):
        _assert_columnar_leaves_the_event_state(spec, workload.materialize())
    base = _run(spec, workload, 1, "event", None)
    for n_shards, mode, latency in GRID:
        report = _run(spec, workload, n_shards, mode, latency)
        tag = f"{spec.protocol} shards={n_shards} {mode} latency={latency}"
        assert report.ledger == base.ledger, f"{tag}: ledger diverged"
        assert report.final_answer == base.final_answer, (
            f"{tag}: answer diverged"
        )


@pytest.mark.parametrize("protocol", sorted(SCALAR_SPECS))
def test_scalar_grid_collapses_to_one_ledger(protocol):
    _assert_grid_collapses(SCALAR_SPECS[protocol], SCALAR_WORKLOAD)


@pytest.mark.parametrize("protocol", sorted(SPATIAL_SPECS))
def test_spatial_grid_collapses_to_one_ledger(protocol):
    _assert_grid_collapses(SPATIAL_SPECS[protocol], SPATIAL_WORKLOAD)


# ----------------------------------------------------------------------
# Hypothesis: adversarial traces through the representative kernels
# ----------------------------------------------------------------------
N_STREAMS = 12


@st.composite
def adversarial_traces(draw, max_records=50):
    """A small trace with arbitrary jumps and globally distinct values."""
    n_records = draw(st.integers(0, max_records))
    pool = draw(
        st.lists(
            st.floats(0.0, 1000.0, allow_nan=False),
            min_size=N_STREAMS + n_records,
            max_size=N_STREAMS + n_records,
            unique_by=lambda v: abs(v - 500.0),
        )
    )
    initial, values = pool[:N_STREAMS], pool[N_STREAMS:]
    ids = draw(
        st.lists(
            st.integers(0, N_STREAMS - 1),
            min_size=n_records,
            max_size=n_records,
        )
    )
    times = np.arange(1.0, n_records + 1.0)
    return StreamTrace(
        initial_values=np.array(initial),
        times=times,
        stream_ids=np.array(ids, dtype=np.int64),
        values=np.array(values),
        horizon=float(n_records + 1),
    )


@given(adversarial_traces())
@settings(max_examples=25, deadline=None)
def test_columnar_kernel_identical_on_adversarial_traces(trace):
    """zt-nrp: the fully-columnar path vs per-event, both topologies."""
    _assert_grid_collapses(
        SCALAR_SPECS["zt-nrp"], Workload.from_trace(trace)
    )


@st.composite
def reacting_ft_nrp_cases(draw):
    """A trace lively enough to drain FT-NRP's pools, a tolerance, and a
    chunk bound: 4 096 keeps the whole trace — several reactions — in
    one chunk; tiny bounds put reactions on a chunk's first and last
    record (with 1, both at once)."""
    trace = draw(adversarial_traces(max_records=150))
    eps = st.sampled_from([0.0, 0.2, 0.3, 0.45])
    tolerance = FractionTolerance(draw(eps), draw(eps))
    options = {"reinitialize_when_exhausted": draw(st.booleans())}
    batch_size = draw(st.sampled_from([1, 2, 3, 7, 4096]))
    return trace, tolerance, options, batch_size


@given(reacting_ft_nrp_cases())
@settings(max_examples=80, deadline=None)
def test_columnar_kernel_with_reactions_identical_on_adversarial_traces(case):
    """ft-nrp: absorbed prefixes, the per-event reacting record and the
    rescan behind it vs per-event replay, both topologies."""
    trace, tolerance, options, batch_size = case
    spec = QuerySpec(
        "ft-nrp", RangeQuery(400.0, 600.0), tolerance, options=options
    )
    _assert_columnar_leaves_the_event_state(spec, trace, batch_size=batch_size)


def test_reactions_really_fall_inside_and_on_the_edges_of_chunks():
    """The hypothesis suite's premise, held on a fixed case: pools that
    exhaust mid-chunk, several reactions inside one chunk, and — chunk
    bound 1 — reactions that are a chunk's first and last record."""
    trace = Workload.synthetic(
        n_streams=12, horizon=300.0, sigma=150.0, seed=5
    ).materialize()
    for options in ({}, {"reinitialize_when_exhausted": True}):
        spec = QuerySpec(
            "ft-nrp", RangeQuery(400.0, 600.0), FractionTolerance(0.45, 0.45),
            options=options,
        )
        whole = _assert_columnar_leaves_the_event_state(spec, trace)
        assert whole["dispatches"] >= 2 and whole["columnar_reports"] > 0
        # The first scan spans the whole trace; each reaction cuts a
        # chunk short and the scan resumes behind it.
        assert trace.n_records < 4096
        assert whole["dispatches"] <= whole["chunk_scans"] < 12
        each = _assert_columnar_leaves_the_event_state(spec, trace, batch_size=1)
        assert each["dispatches"] == whole["dispatches"]
        assert each["chunk_scans"] == trace.n_records


@given(adversarial_traces())
@settings(max_examples=15, deadline=None)
def test_run_kernel_identical_on_adversarial_traces(trace):
    """rtp: broadcast-heavy run-heap path (rescans + bailout) vs
    per-event, both topologies."""
    _assert_grid_collapses(SCALAR_SPECS["rtp"], Workload.from_trace(trace))
