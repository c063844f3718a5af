"""The columnar kernel reads a trace's shape from one index (DESIGN.md §9).

``replay_columnar`` judges a chunk against
``repro.state.runs.previous_in_stream`` — each record's per-stream
predecessor — instead of sorting the chunk into runs.  The index is a
property of the record arrays, so it may be supplied whole, supplied as
the offset slice of a longer trace's (the durable runner's way), or left
to the kernel to build: every way must leave the ledger, the answer and
the stats of every other, and the ledger and answer of per-event replay.
It is built once per trace, on the first run that needs it, and a run
that never reaches the kernel never builds it.
"""

import pytest

import repro
from repro.api import Deployment, Engine, QuerySpec, Workload
from repro.durability import DurabilityPolicy
from repro.runtime import replay as replay_module
from repro.runtime.session import ExecutionSession
from repro.state.runs import previous_in_stream
from repro.streams import trace as trace_module

RANGE = repro.RangeQuery(400.0, 600.0)
SPECS = {
    "zt-nrp": QuerySpec("zt-nrp", RANGE),
    "ft-nrp": QuerySpec("ft-nrp", RANGE, repro.FractionTolerance(0.2, 0.2)),
}
RTP = QuerySpec("rtp", repro.TopKQuery(5), repro.RankTolerance(5, 3))
#: Short traces (~120 records), cut at every position below: a lively
#: one whose streams cross the range constantly — reports in nearly
#: every chunk, FT-NRP reacting — and a quiet one that mostly stages.
TRACES = {
    "lively": Workload.synthetic(n_streams=40, horizon=60.0, sigma=150.0, seed=5),
    "quiet": Workload.synthetic(n_streams=40, horizon=60.0, sigma=25.0, seed=5),
}


def _outcome(spec, trace, pieces=None, mode="batch"):
    """Replay *trace* piece by piece — ``(start, stop, previous)`` — on
    one session; returns ``(ledger, answer, per-piece stats)``."""
    session = ExecutionSession.assemble("streams", trace, spec.build())
    session.initialize()
    stats = []
    for start, stop, previous in pieces or [(0, trace.n_records, None)]:
        session.replay(
            trace.times[start:stop],
            trace.stream_ids[start:stop],
            trace.values[start:stop],
            mode=mode,
            previous=previous,
        )
        stats.append(dict(session.last_replay_stats))
    return session.snapshot(), session.host.protocol.answer, stats


@pytest.mark.parametrize("shape", sorted(TRACES))
@pytest.mark.parametrize("protocol", sorted(SPECS))
def test_one_outcome_however_the_index_arrives(protocol, shape):
    spec, trace = SPECS[protocol], TRACES[shape].materialize()
    n = trace.n_records
    index = previous_in_stream(trace.stream_ids)
    event = _outcome(spec, trace, mode="event")
    omitted = _outcome(spec, trace)
    assert omitted[2][0]["kernel"] == "columnar"
    assert omitted[:2] == event[:2]
    assert _outcome(spec, trace, [(0, n, index)]) == omitted
    assert _outcome(spec, trace, [(0, n, lambda: index)]) == omitted
    for cut in range(n + 1):
        built = _outcome(spec, trace, [(0, cut, None), (cut, n, None)])
        sliced = _outcome(
            spec, trace, [(0, cut, index[:cut]), (cut, n, index[cut:] - cut)]
        )
        assert sliced == built, cut
        assert sliced[:2] == event[:2], cut


def test_frontiers_at_every_position_read_the_same_index():
    """A frontier ends a chunk; the next one's predecessors then mostly
    lie before it and must read the believed plane, not wrap around."""
    spec, trace = SPECS["ft-nrp"], TRACES["lively"].materialize()
    n = trace.n_records
    event = _outcome(spec, trace, mode="event")
    session = ExecutionSession.assemble("streams", trace, spec.build())
    session.initialize()
    session.replay_trace(trace, mode="batch", frontiers=range(1, n + 1))
    stats = session.last_replay_stats
    assert stats["kernel"] == "columnar"
    assert stats["chunk_scans"] == n  # every record judged alone
    assert (session.snapshot(), session.host.protocol.answer) == event[:2]


# ----------------------------------------------------------------------
# Built once, and only when the kernel runs
# ----------------------------------------------------------------------
@pytest.fixture
def index_builds(monkeypatch):
    """Every call of ``previous_in_stream`` from ``src/``, by length."""
    calls = []

    def spy(stream_ids):
        calls.append(len(stream_ids))
        return previous_in_stream(stream_ids)

    monkeypatch.setattr(trace_module, "previous_in_stream", spy)
    monkeypatch.setattr(replay_module, "previous_in_stream", spy)
    return calls


def _fresh_workload():
    return Workload.synthetic(n_streams=60, horizon=30.0, sigma=60.0, seed=3)


def test_the_index_is_built_once_per_trace(index_builds, tmp_path):
    engine, spec = Engine(), SPECS["ft-nrp"]
    workload = _fresh_workload()
    n = workload.materialize().n_records
    reports = [engine.run(spec, workload) for _ in range(3)]
    assert [r.extras["replay"]["kernel"] for r in reports] == ["columnar"] * 3
    assert index_builds == [n]

    workload = _fresh_workload()
    for run in range(3):
        policy = DurabilityPolicy(
            run_dir=tmp_path / f"run{run}", snapshot_every=40, segment_records=16
        )
        report = engine.run(spec, workload, Deployment.single(durable=policy))
        assert report.extras["replay"]["kernel"] == "columnar"
        assert report.ledger == reports[0].ledger
    assert index_builds == [n, n]


def test_a_run_that_never_reaches_the_kernel_never_builds_it(index_builds):
    engine, workload = Engine(), _fresh_workload()
    checked = engine.run(
        SPECS["ft-nrp"], workload, Deployment.single(check_every=1)
    )
    assert checked.extras["replay"]["mode"] == "event"
    ranked = engine.run(RTP, workload)
    assert ranked.extras["replay"]["kernel"] == "run"
    assert index_builds == []

