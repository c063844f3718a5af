"""The replay cursor against the reference, step by step (DESIGN.md §9).

``ReplayCursor`` is the one replay core: ``ExecutionSession.replay``
drives it in-process, ``ShardWorker`` under RPC.  These tests drive the
three operations by hand — with constraint rewrites *between* steps,
which is what a coordinator reaction does to an idle shard — and pin
the structural promises of the refactor (one caller of
``crossing_mask``, no session import in the transport, no mirror
methods left behind).
"""

import ast
import pathlib
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.api import Deployment, Engine, QuerySpec, Workload
from repro.durability import DurabilityPolicy, resume_run
from repro.durability.runner import execute_durable_streams
from repro.network.latency import FixedLatency
from repro.network.messages import MessageKind
from repro.protocols.base import FilterProtocol
from repro.queries.knn import KnnQuery, TopKQuery
from repro.runtime.membership import BELIEF_NONE
from repro.runtime.replay import (
    DEFAULT_BATCH_SIZE,
    REPLAY_MODES,
    ReplayCursor,
    _StatePrescan,
    columnar_table,
    merge_replay_stats,
)
from repro.runtime.session import ExecutionSession
from repro.server.transport import ShardWorker, TransportError
from repro.spatial.geometry import BoxRegion
from repro.spatial.queries import SpatialKnnQuery, SpatialRangeQuery
from repro.spatial.trace import SpatialTrace
from repro.streams.source import ScalarPopulation
from repro.streams.trace import StreamTrace
from repro.streams.vocabulary import SCALAR
from repro.tolerance.rank_tolerance import RankTolerance
from replay_forcing import forced_replay, run_forced

SRC = pathlib.Path(repro.__file__).resolve().parent
N_STREAMS = 6
WIDTH = 40.0


def interval_around(value, width):
    return float(value) - width, float(value) + width


def box_around(point, width):
    point = np.asarray(point, dtype=np.float64)
    return (BoxRegion(point - width, point + width),)


class WindowProtocol(FilterProtocol):
    """Keeps a window filter around every stream's last known payload.

    An update re-centres the reporter's window and — so a reaction also
    touches a stream that did *not* dispatch — re-deploys its neighbour's
    window at a width cycling with the update count, under the belief
    "inside": a drifted neighbour self-corrects, which cascades.  Stream
    0 gets no window of its own: a filterless stream reports every
    change, though no constraint write ever names it.
    """

    name = "window"

    def __init__(self, constraint) -> None:
        self.constraint = constraint
        self.known: dict[int, object] = {}
        self.updates = 0

    def initialize(self, server) -> None:
        self.known = dict(enumerate(server.probe_all()))
        for stream_id, payload in self.known.items():
            if stream_id:
                server.deploy(stream_id, *self.constraint(payload, WIDTH))

    def on_update(self, server, stream_id, payload, time) -> None:
        self.updates += 1
        self.known[stream_id] = payload
        if stream_id:
            server.deploy(stream_id, *self.constraint(payload, WIDTH))
        neighbour = (stream_id + 1) % server.n_streams
        server.deploy(
            neighbour,
            *self.constraint(
                self.known[neighbour], WIDTH / (1 + self.updates % 3)
            ),
            assumed_inside=True,
        )


@st.composite
def rewritten_traces(draw):
    """A small trace plus external constraint rewrites: ``(record index,
    stream, centre, width, belief)`` — applied before that record."""
    n_records = draw(st.integers(0, 40))
    coordinate = st.integers(0, 200).map(float)
    point = st.tuples(coordinate, coordinate)
    initial = draw(st.lists(point, min_size=N_STREAMS, max_size=N_STREAMS))
    points = draw(st.lists(point, min_size=n_records, max_size=n_records))
    ids = draw(
        st.lists(
            st.integers(0, N_STREAMS - 1),
            min_size=n_records,
            max_size=n_records,
        )
    )
    rewrites = draw(
        st.lists(
            st.tuples(
                st.integers(0, max(n_records - 1, 0)),
                st.integers(0, N_STREAMS - 1),
                point,
                st.sampled_from([5.0, 40.0, 400.0]),
                st.sampled_from([None, True, False]),
            ),
            max_size=6 if n_records else 0,
        )
    )
    return initial, ids, points, sorted(rewrites, key=lambda r: r[0])


def _assemble(stack, initial, ids, points, latency):
    """An initialized single-server session hosting the window
    protocol: ``(session, trace, record payloads, rewrite)``."""
    times = np.arange(1.0, len(ids) + 1.0)
    stream_ids = np.array(ids, dtype=np.int64)
    horizon = float(len(ids) + 1)
    if stack == "streams":
        trace = StreamTrace(
            initial_values=np.array([p[0] for p in initial]),
            times=times,
            stream_ids=stream_ids,
            values=np.array([p[0] for p in points], dtype=np.float64),
            horizon=horizon,
        )
        constraint = interval_around
        centre = lambda p: p[0]  # noqa: E731
    else:
        trace = SpatialTrace(
            initial_points=np.array(initial, dtype=np.float64),
            times=times,
            stream_ids=stream_ids,
            points=np.array(points, dtype=np.float64).reshape(-1, 2),
            horizon=horizon,
        )
        constraint = box_around
        centre = lambda p: p  # noqa: E731
    session = ExecutionSession.assemble(
        stack, trace, WindowProtocol(constraint), None, latency
    )
    session.initialize()
    payloads = getattr(trace, session.vocabulary.record_column)

    def rewrite(index, stream, at, width, belief):
        # Both runs have consumed every record before *index*; pin the
        # clock there so a latency model samples the same delivery time.
        if index:
            session.engine.run(until=float(times[index - 1]))
        session.host.deploy(
            stream, *constraint(centre(at), width), assumed_inside=belief
        )

    return session, trace, payloads, rewrite


def _observable(session):
    """Ledger, final table columns, source values, reaction count."""
    table = session.host.state
    columns = (
        "values", "report_time", "known", "points", "lower", "upper", "inside",
        "scannable", "geo_lower", "geo_upper", "geo_outer_lower",
        "geo_outer_upper", "geo_scannable",
    )
    return (
        session.snapshot(),
        {
            name: None if getattr(table, name) is None
            else getattr(table, name).tolist()
            for name in columns
        },
        [np.asarray(source.value).tolist() for source in session.sources],
        session.host.protocol.updates,
    )


#: Delays no sum of which lands on the integer record grid.
LATENCIES = {"sync": None, "zero": 0.0, "fixed": FixedLatency(1.3713, 2.5291)}


@pytest.mark.parametrize("latency", sorted(LATENCIES))
@pytest.mark.parametrize("stack", ["streams", "spatial"])
@given(case=rewritten_traces())
@settings(max_examples=40, deadline=None)
def test_stepwise_cursor_matches_event_replay(stack, latency, case):
    initial, ids, points, rewrites = case
    model = LATENCIES[latency]

    # Reference: ``mode="event"``, rewrites injected from the
    # before-each-record hook.
    session, trace, _, rewrite = _assemble(stack, initial, ids, points, model)
    pending = list(rewrites)
    seen = [0]

    def before_record(stream_id, payload):
        while pending and pending[0][0] == seen[0]:
            rewrite(*pending.pop(0))
        seen[0] += 1

    session.replay_trace(trace, mode="event", oracle_apply=before_record)
    assert not pending
    assert session.last_replay_stats["dispatches"] == len(ids)
    expected = _observable(session)

    # The cursor, stepped by hand with tiny chunks: the batch strategy
    # on a synchronous channel, the event strategy on a latency-modeled
    # one whatever mode was asked for.
    session, trace, payloads, rewrite = _assemble(
        stack, initial, ids, points, model
    )
    cursor = ReplayCursor(
        trace.times,
        trace.stream_ids,
        payloads,
        sources=session.sources,
        tables=[session.host.state],
        channels=session.channels,
        engine=session.engine,
        mode="batch",
        batch_size=5,
        min_chunk=2,
    )
    assert cursor.mode == ("batch" if model is None else "event")
    n = len(ids)
    for index, *what in rewrites + [(n, None)]:
        # Commit every record before *index*, then rewrite.
        while cursor.pos < index:
            k = cursor.candidate()
            if k is None:
                k = n
            assert cursor.pos <= k <= n
            if k < n:
                with pytest.raises(ValueError, match="proven frontier"):
                    cursor.advance(cursor.proven + 1)
            if k >= index:
                cursor.advance(index)
                break
            cursor.advance(k)
            cursor.dispatch()
        if what[0] is not None:
            rewrite(index, *what)
    assert cursor.stats["dispatches"] + cursor.stats["staged"] == n
    session.engine.run(until=trace.horizon)
    for channel in session.latency_channels:
        channel.drain_in_flight()
    assert _observable(session) == expected


class _Tie(FilterProtocol):
    name = "tie"

    def initialize(self, server) -> None:
        server.probe_all()
        server.deploy(0, 0.0, 100.0)
        server.deploy(1, 0.0, 100.0)

    def on_update(self, server, stream_id, value, time) -> None:
        if stream_id == 0:
            server.deploy(1, 0.0, 200.0, assumed_inside=True)


@pytest.mark.parametrize("mode", ["event", "batch"])
def test_a_record_and_a_delivery_due_at_the_same_instant(mode):
    """Stream 0's crossing at t=1 arrives at 1.5; the reaction's install
    for stream 1 lands at 2.0 — the instant of stream 1's own record.
    The reference order is engine FIFO, the record's slot taken when its
    predecessor applied, so the record meets the *old* filter and
    reports.  A latency model replays every mode per event, so a forced
    ``batch`` keeps that order too."""
    trace = StreamTrace(
        initial_values=np.array([50.0, 50.0]),
        times=np.array([1.0, 2.0]),
        stream_ids=np.array([0, 1]),
        values=np.array([150.0, 150.0]),
        horizon=5.0,
    )
    session = ExecutionSession.for_streams(
        trace, _Tie(), latency=FixedLatency(0.5, 0.5)
    )
    session.initialize()
    session.replay_trace(trace, mode=mode)
    assert session.last_replay_stats["mode"] == "event"
    assert session.snapshot().maintenance[MessageKind.UPDATE] == 2


@pytest.mark.parametrize("mode", ["event", "batch"])
def test_records_past_the_horizon_stay_unapplied(mode):
    trace = StreamTrace(
        initial_values=np.array([50.0, 50.0]),
        times=np.array([1.0, 2.0, 3.0]),
        stream_ids=np.array([0, 1, 0]),
        values=np.array([60.0, 70.0, 80.0]),
        horizon=3.0,
    )
    session = ExecutionSession.for_streams(trace, _Tie())
    session.initialize()
    session.replay(
        trace.times, trace.stream_ids, trace.values, horizon=2.0, mode=mode
    )
    assert [source.value for source in session.sources] == [60.0, 70.0]
    assert session.engine.now == 2.0
    assert session.last_replay_stats["records"] == 2


# ----------------------------------------------------------------------
# The worker drives the same cursor
# ----------------------------------------------------------------------
class Recenter(FilterProtocol):
    """Window filters whose only reaction re-centres the reporter's."""

    name = "recenter"

    def initialize(self, server) -> None:
        for stream_id, value in enumerate(server.probe_all()):
            server.deploy(stream_id, *interval_around(value, WIDTH))

    def on_update(self, server, stream_id, value, time) -> None:
        server.deploy(stream_id, *interval_around(value, WIDTH))


def _deploy_at_worker(worker, stream_ids, lower, upper) -> None:
    ids = np.asarray(stream_ids, dtype=np.int64)
    worker.deploy_batch(
        ids,
        np.asarray(lower, dtype=np.float64),
        np.asarray(upper, dtype=np.float64),
        np.full(len(ids), BELIEF_NONE, dtype=np.int8),
        np.zeros(len(ids)),
    )


def _one_shard_worker(trace) -> ShardWorker:
    """A shard worker whose cursor is built now, forced to batch: it
    reads the live columns, so the filters deployed later still count."""
    worker = ShardWorker(
        SCALAR,
        0,
        trace.initial_values,
        trace.times,
        trace.stream_ids,
        trace.values,
        np.arange(trace.n_records),
    )
    with forced_replay("batch"):
        assert worker.cursor.mode == "batch"
    return worker


def test_one_shard_worker_dispatches_what_the_session_dispatches(monkeypatch):
    trace = Workload.synthetic(
        n_streams=30, horizon=60.0, sigma=60.0, seed=5
    ).materialize()
    dispatched: list[int] = []
    dispatch = ReplayCursor.dispatch

    def recording(self):
        dispatched.append(self.pos)
        dispatch(self)

    monkeypatch.setattr(ReplayCursor, "dispatch", recording)

    session = ExecutionSession.for_streams(trace, Recenter())
    session.initialize()
    session.replay_trace(trace, mode="batch")
    by_session, dispatched[:] = list(dispatched), []
    assert 0 < len(by_session) < trace.n_records

    worker = _one_shard_worker(trace)
    _deploy_at_worker(
        worker,
        range(trace.n_streams),
        trace.initial_values - WIDTH,
        trace.initial_values + WIDTH,
    )
    while True:
        g = worker.scan()
        if g is None:
            break
        for local_id, value, _ in worker.dispatch(g):
            _deploy_at_worker(worker, [local_id], [value - WIDTH], [value + WIDTH])
    stats = worker.finish(trace.horizon)
    assert dispatched == by_session
    assert stats["staged"] == session.last_replay_stats["staged"]
    assert stats["kernel"] == "transport"
    assert [s.value for s in worker.sources] == [s.value for s in session.sources]


def test_bailout_mid_replay_keeps_the_ledger():
    """In-process, small chunks: the switch lands mid-trace with proven
    records still unstaged, and the rest replays per-event."""
    n = 2000
    rng = np.random.default_rng(8)
    trace = StreamTrace(
        initial_values=np.full(8, 500.0),
        times=np.arange(1.0, n + 1.0),
        stream_ids=rng.integers(0, 8, size=n),
        # Mostly jumps far outside the +-40 window, some quiet drift.
        values=np.where(
            rng.random(n) < 0.8, rng.uniform(0.0, 1000.0, n), 500.0
        ),
        horizon=float(n + 1),
    )
    ledgers = {}
    for mode in ("event", "batch"):
        session = ExecutionSession.for_streams(trace, Recenter())
        session.initialize()
        session.replay_trace(trace, mode=mode, batch_size=64, min_chunk=8)
        ledgers[mode] = (
            session.snapshot(),
            [source.value for source in session.sources],
        )
        stats = session.last_replay_stats
    assert ledgers["batch"] == ledgers["event"]
    assert 0 < stats["dispatch_bailout_at"] < n
    assert stats["staged"] > 0
    assert stats["dispatches"] + stats["staged"] == n


def test_a_lively_shard_bails_out_to_the_event_strategy():
    """Filterless streams dispatch every record; past 512 dispatches at
    over 60 % the cursor stops scanning — inside ``candidate()``, so the
    frontier a coordinator holds for the shard is always the one the
    last ``scan`` returned."""
    n = 3 * DEFAULT_BATCH_SIZE
    rng = np.random.default_rng(4)
    trace = StreamTrace(
        initial_values=np.zeros(5),
        times=np.arange(1.0, n + 1.0),
        stream_ids=rng.integers(0, 5, size=n),
        values=rng.uniform(0.0, 1000.0, size=n),
        horizon=float(n + 1),
    )
    worker = _one_shard_worker(trace)
    position = 0
    while True:
        g = worker.scan()
        if g is None:
            break
        assert g == position
        worker.advance(g)
        (report,) = worker.dispatch(g)
        assert report[1:] == (trace.values[g], trace.times[g])
        position += 1
    stats = worker.finish(trace.horizon)
    assert (stats["dispatches"], stats["staged"]) == (n, 0)
    assert stats["dispatch_bailout_at"] == DEFAULT_BATCH_SIZE
    assert stats["chunk_scans"] == 1
    assert stats["mode"] == "batch"


def test_a_bailout_claims_nothing_past_pos():
    """A shard bails out mid-chunk with a quiet tail already scanned.
    Under RPC only the coordinator moves ``pos``, so the tail is not
    staged yet when another shard's reaction narrows its stream's
    filter: the switch must leave nothing proven, or the flipped record
    would be bulk-staged and its UPDATE lost."""
    lively, n = 3000, DEFAULT_BATCH_SIZE + 100
    rng = np.random.default_rng(6)
    values = rng.uniform(450.0, 550.0, size=n)
    target = 3500
    values[target] = 900.0
    trace = StreamTrace(
        initial_values=np.full(2, 500.0),
        times=np.arange(1.0, n + 1.0),
        # Stream 0 carries no filter and dispatches every record.
        stream_ids=(np.arange(n) >= lively).astype(np.int64),
        values=values,
        horizon=float(n + 1),
    )
    worker = _one_shard_worker(trace)
    _deploy_at_worker(worker, [1], [0.0], [1000.0])
    for g in range(lively):
        assert worker.scan() == g
        worker.dispatch(g)
    # The chunk's quiet tail [3000, 4096) is scanned; the switch fires.
    assert worker.scan() == lively
    cursor = worker.cursor
    assert cursor.stats["dispatch_bailout_at"] == lively
    assert (cursor.pos, cursor.proven) == (lively, lively)
    with pytest.raises(TransportError, match="past the proven frontier"):
        worker.advance(lively + 1)

    _deploy_at_worker(worker, [1], [400.0], [600.0])
    reports = []
    while (g := worker.scan()) is not None:
        reports += worker.dispatch(g)
    # Out of the narrowed filter, then back in with the next record.
    assert reports == [
        (1, values[k], float(k + 1)) for k in (target, target + 1)
    ]
    assert worker.finish(trace.horizon)["staged"] == 0


@pytest.mark.parametrize("flipped_chunk", [0, 1, 2, 3])
def test_touch_on_a_multi_chunk_idle_window_surfaces_the_flip(flipped_chunk):
    """An idle shard proves far ahead of ``pos``; a coordinator reaction
    then narrows one stream's filter.  Every scanned chunk must be
    re-validated — the flipped record is the new candidate, wherever in
    the window it lies."""
    n_chunks = 4
    n = n_chunks * DEFAULT_BATCH_SIZE
    rng = np.random.default_rng(3)
    values = rng.uniform(450.0, 550.0, size=n)
    # One record will leave [400, 600] once its stream's filter narrows.
    target = flipped_chunk * DEFAULT_BATCH_SIZE + 1234
    values[target] = 900.0
    trace = StreamTrace(
        initial_values=np.full(4, 500.0),
        times=np.arange(1.0, n + 1.0),
        stream_ids=rng.integers(0, 4, size=n),
        values=values,
        horizon=float(n + 1),
    )
    worker = _one_shard_worker(trace)
    _deploy_at_worker(worker, range(4), np.full(4, 0.0), np.full(4, 1000.0))
    assert worker.scan() is None
    assert worker.cursor.stats["chunk_scans"] == n_chunks
    assert (worker.cursor.pos, worker.cursor.proven) == (0, n)

    # The coordinator advanced this idle shard a little, then reacted.
    worker.advance(100)
    stream = int(trace.stream_ids[target])
    _deploy_at_worker(worker, [stream], [400.0], [600.0])
    assert worker.scan() == target
    with pytest.raises(TransportError, match="past the proven frontier"):
        worker.advance(target + 2)
    assert worker.dispatch(target) == [(stream, 900.0, float(target + 1))]
    assert worker.cursor.stats["staged"] == target
    assert worker.cursor.stats["dispatches"] == 1


# ----------------------------------------------------------------------
# The one fact: every candidate is the first crossing of the live columns
# ----------------------------------------------------------------------
SCALAR_LIVELY = Workload.synthetic(n_streams=40, horizon=300.0, sigma=60.0, seed=5)
MOVING_LIVELY = Workload.moving_objects(n_objects=40, horizon=300.0, seed=5)
BOX = BoxRegion([300.0, 300.0], [700.0, 700.0])
ORACLE_SPECS = {
    "rtp": QuerySpec("rtp", TopKQuery(5), RankTolerance(5, 3)),
    "zt-rp": QuerySpec("zt-rp", KnnQuery(q=500.0, k=5)),
    "ft-rp": QuerySpec(
        "ft-rp", KnnQuery(q=500.0, k=5), repro.FractionTolerance(0.2, 0.2)
    ),
    "no-filter-2d": QuerySpec("no-filter-2d", SpatialRangeQuery(BOX)),
    "zt-nrp-2d": QuerySpec("zt-nrp-2d", SpatialRangeQuery(BOX)),
    "ft-nrp-2d": QuerySpec(
        "ft-nrp-2d", SpatialRangeQuery(BOX), repro.FractionTolerance(0.2, 0.2)
    ),
    "rtp-2d": QuerySpec(
        "rtp-2d", SpatialKnnQuery((500.0, 500.0), 5), RankTolerance(5, 3)
    ),
    "zt-rp-2d": QuerySpec("zt-rp-2d", SpatialKnnQuery((500.0, 500.0), 5)),
    "ft-rp-2d": QuerySpec(
        "ft-rp-2d",
        SpatialKnnQuery((500.0, 500.0), 5),
        repro.FractionTolerance(0.2, 0.2),
    ),
}
ORACLE_CELLS = [
    (name, topology)
    for name in sorted(ORACLE_SPECS)
    for topology in ("single", "sharded")
] + [("run_queries", "single")]


@pytest.mark.parametrize("name, topology", ORACLE_CELLS)
def test_candidate_is_the_first_live_crossing(monkeypatch, name, topology):
    """Until a bailout, each candidate is ``pos`` plus the first potential
    crossing of a fresh pre-scan of everything left, against the columns
    as they are then — or ``None`` when there is none.  A constraint
    write that bumps no epoch leaves a stale claim and fails here."""
    original = ReplayCursor.candidate
    checked = []

    def candidate(cursor):
        k = original(cursor)
        if cursor.stats["dispatch_bailout_at"] is None:
            pos = cursor.pos
            mask = _StatePrescan(cursor._tables).crossing_mask(
                cursor.ids[pos:], cursor.payloads[pos:]
            )
            hits = np.flatnonzero(mask)
            assert k == (pos + int(hits[0]) if hits.size else None), pos
            checked.append(k)
        return k

    monkeypatch.setattr(ReplayCursor, "candidate", candidate)
    engine = Engine()
    if name == "run_queries":
        run_forced(
            "batch",
            lambda: engine.run_queries(
                {
                    "near": QuerySpec("zt-rp", KnnQuery(q=500.0, k=5)),
                    "top": ORACLE_SPECS["rtp"],
                },
                SCALAR_LIVELY,
                Deployment.single(),
            ),
        )
    else:
        spec = ORACLE_SPECS[name]
        deployment = (
            Deployment.single() if topology == "single" else Deployment.sharded(2)
        )
        workload = MOVING_LIVELY if name.endswith("-2d") else SCALAR_LIVELY
        report = run_forced(
            "batch", lambda: engine.run(spec, workload, deployment)
        )
        assert report.extras["replay"]["kernel"] == "run"
    assert len(checked) > 1


# ----------------------------------------------------------------------
# One core, structurally
# ----------------------------------------------------------------------
def _tree(relative):
    return ast.parse((SRC / relative).read_text())


def _class(tree, name):
    (node,) = [
        n for n in ast.walk(tree) if isinstance(n, ast.ClassDef) and n.name == name
    ]
    return {n.name for n in node.body if isinstance(n, ast.FunctionDef)}


def _calls(tree, attribute):
    """Names of the functions whose body calls ``<x>.<attribute>(...)``."""
    callers = set()
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(function):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == attribute
            ):
                callers.add(function.name)
    return callers


def test_one_replay_core_structurally():
    callers = {
        str(path.relative_to(SRC)): _calls(ast.parse(path.read_text()), "crossing_mask")
        for path in sorted(SRC.rglob("*.py"))
    }
    assert {k: v for k, v in callers.items() if v} == {
        "runtime/replay.py": {"_scan"}
    }
    # The cursor's one fact is a stretch and an epoch: no run heap, and
    # no per-row constraint watch to drain.
    replay_tree = _tree("runtime/replay.py")
    imported_by_replay = {
        alias.name
        for node in ast.walk(replay_tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    } | {
        node.module
        for node in ast.walk(replay_tree)
        if isinstance(node, ast.ImportFrom)
    }
    assert "heapq" not in imported_by_replay
    assert "close" not in _class(replay_tree, "ReplayCursor")
    assert "watch_constraints" not in _class(
        _tree("state/table.py"), "StreamStateTable"
    )
    # Exactly one replay routine applies a record to its source.
    assert _calls(_tree("runtime/replay.py"), "apply") == {"_apply"}
    for module in ("runtime/session.py", "server/transport.py"):
        assert _calls(_tree(module), "apply") == set()

    transport = _tree("server/transport.py")
    imported = {
        node.module
        for node in ast.walk(transport)
        if isinstance(node, ast.ImportFrom)
    } | {
        alias.name
        for node in ast.walk(transport)
        if isinstance(node, ast.Import)
        for alias in node.names
    }
    assert "repro.runtime.session" not in imported
    assert "repro.runtime.replay" in imported

    assert "_resolve_mode" not in _class(transport, "ShardWorker")
    # A latency model selects the event strategy: the cursor reads no
    # in-flight state.
    replay = (SRC / "runtime/replay.py").read_text()
    assert "in_flight_stream_ids" not in replay
    assert "next_delivery_time" not in replay
    session_methods = _class(_tree("runtime/session.py"), "ExecutionSession")
    assert not session_methods & {
        "_replay_events",
        "_replay_run_kernel",
        "_run_kernel_chunk",
        "_dispatch_record",
        "_resolve_mode",
    }
    # The traced entry points keep their names.
    assert {
        "for_streams", "for_streams_sharded", "for_spatial",
        "for_spatial_sharded", "initialize", "replay",
    } <= session_methods


@pytest.mark.parametrize(
    "spec, workload",
    [
        (
            QuerySpec(
                "ft-nrp",
                repro.RangeQuery(400.0, 600.0),
                repro.FractionTolerance(0.2, 0.2),
            ),
            Workload.synthetic(n_streams=200, horizon=40.0, seed=3),
        ),
        (
            QuerySpec(
                "ft-nrp-2d",
                SpatialRangeQuery(BoxRegion([300.0, 300.0], [700.0, 700.0])),
                repro.FractionTolerance(0.2, 0.2),
            ),
            Workload.moving_objects(n_objects=60, horizon=40.0, seed=3),
        ),
    ],
    ids=["scalar", "spatial"],
)
@pytest.mark.parametrize("topology", ["single", "sharded"])
def test_auto_resolves_event_under_any_latency_channel(spec, workload, topology):
    """Under a latency model every mode replays per event (DESIGN.md
    §8.2: the batch cursor lost there in 25 of 28 measured cells), even
    on scannable columns, and all of them leave one ledger."""
    latency = repro.UniformLatency(0.05, 0.6, seed=11)

    def run(mode):
        if topology == "single":
            deployment = Deployment.single(latency=latency)
        else:
            deployment = Deployment.sharded(2, latency=latency)
        return run_forced(mode, lambda: Engine().run(spec, workload, deployment))

    reports = {mode: run(mode) for mode in REPLAY_MODES}
    for report in reports.values():
        stats = report.extras["replay"]
        assert (stats["mode"], stats["staged"], stats["chunk_scans"]) == (
            "event", 0, 0
        )
    ledgers = [report.ledger for report in reports.values()]
    assert all(ledger == ledgers[0] for ledger in ledgers)
    # Without a model the scalar columns still select the batch cursor.
    if spec.protocol == "ft-nrp":
        sync = Engine().run(spec, workload, Deployment.single())
        assert sync.extras["replay"]["mode"] == "batch"


# ----------------------------------------------------------------------
# Manifests written before the knobs left
# ----------------------------------------------------------------------
class _Kill(BaseException):
    pass


def test_resume_ignores_the_retired_manifest_keys(tmp_path):
    spec = QuerySpec(
        protocol="rtp", query=TopKQuery(10), tolerance=RankTolerance(10, 5)
    )
    workload = Workload.synthetic(n_streams=120, horizon=200.0, seed=23)
    trace = workload.materialize()
    baseline = Engine().run(spec, workload, Deployment.single())
    policy = DurabilityPolicy(
        run_dir=str(tmp_path / "run"), snapshot_every=0, segment_records=128
    )

    def progress(position):
        if position >= trace.n_records // 2:
            raise _Kill

    with pytest.raises(_Kill):
        execute_durable_streams(
            trace, spec.build(), Deployment.single(durable=policy),
            progress=progress,
        )
    with open(policy.manifest_path, "rb") as handle:
        manifest = pickle.load(handle)
    assert "batch_size" not in manifest and "min_chunk" not in manifest
    manifest.update(batch_size=512, min_chunk=8)
    with open(policy.manifest_path, "wb") as handle:
        pickle.dump(manifest, handle)

    result = resume_run(policy.run_dir, trace)
    assert result.ledger == baseline.ledger
    assert result.final_answer == baseline.final_answer


# ----------------------------------------------------------------------
# Frontiers: replay applies nothing at or past the one it last took
# ----------------------------------------------------------------------
FRONTIER_SPECS = {
    # zt-nrp and ft-nrp declare columnar maintenance: mode="batch"
    # takes ``replay_columnar``; rtp drives the cursor.
    "zt-nrp": QuerySpec("zt-nrp", repro.RangeQuery(400.0, 600.0)),
    "ft-nrp": QuerySpec(
        "ft-nrp", repro.RangeQuery(400.0, 600.0), repro.FractionTolerance(0.2, 0.2)
    ),
    "rtp": QuerySpec("rtp", TopKQuery(10), RankTolerance(10, 5)),
}
FRONTIER_TRACE = Workload.synthetic(
    n_streams=40, horizon=100.0, sigma=60.0, seed=23
).materialize()
FRONTIER_CELLS = [
    (protocol, n_shards, mode)
    for protocol in sorted(FRONTIER_SPECS)
    for n_shards in (None, 2)
    for mode in ("event", "batch")
]


def _frontier_session(protocol, n_shards):
    session = ExecutionSession.assemble(
        "streams", FRONTIER_TRACE, FRONTIER_SPECS[protocol].build(), n_shards,
        None,
    )
    session.initialize()
    return session


def _frontier_outcome(session):
    stats = session.last_replay_stats
    return (
        session.snapshot(),
        session.host.protocol.answer,
        [source.value for source in session.sources],
        stats["staged"] + stats["dispatches"],
    )


_UNDIVIDED: dict = {}


def _undivided(protocol, n_shards, mode):
    key = (protocol, n_shards, mode)
    if key not in _UNDIVIDED:
        session = _frontier_session(protocol, n_shards)
        session.replay_trace(FRONTIER_TRACE, mode=mode)
        _UNDIVIDED[key] = _frontier_outcome(session)
    return _UNDIVIDED[key]


ascending_cuts = st.lists(
    st.integers(0, FRONTIER_TRACE.n_records), max_size=8
).map(lambda cuts: sorted(cuts) + [FRONTIER_TRACE.n_records])


@pytest.mark.parametrize("protocol, n_shards, mode", FRONTIER_CELLS)
@given(cuts=ascending_cuts)
@settings(max_examples=12, deadline=None)
def test_frontiers_leave_the_undivided_outcome(protocol, n_shards, mode, cuts):
    session = _frontier_session(protocol, n_shards)
    session.replay_trace(FRONTIER_TRACE, mode=mode, frontiers=cuts)
    assert _frontier_outcome(session) == _undivided(protocol, n_shards, mode)
    kernel = session.last_replay_stats["kernel"]
    if mode == "batch":
        assert kernel == ("run" if protocol == "rtp" else "columnar")


@pytest.mark.parametrize("protocol, n_shards, mode", FRONTIER_CELLS)
def test_nothing_at_or_past_the_frontier_is_applied(
    monkeypatch, protocol, n_shards, mode
):
    """Every payload the population takes names its record (the trace's
    values are distinct), so a spy on its two write paths — ``apply``
    for one dispatched record, ``stage`` for a quiescent stretch — sees
    exactly which records have reached a source; the ledger, read each
    time the iterator is resumed, says whether everything below the
    frontier had been applied by then."""
    trace = FRONTIER_TRACE
    n = trace.n_records
    index_of = {float(value): k for k, value in enumerate(trace.values)}
    assert len(index_of) == n
    cuts = [0, n // 5, n // 2, n // 2, n - 1, n]
    state = {"frontier": 0}
    seen = []

    def spy(method):
        original = getattr(ScalarPopulation, method)

        def wrapper(self, *args):
            # apply(row, payload, time) / stage(rows, payloads)
            for payload in np.atleast_1d(args[1]).tolist():
                index = index_of[payload]
                assert index < state["frontier"], (method, index, state)
                seen.append(index)
            return original(self, *args)

        monkeypatch.setattr(ScalarPopulation, method, wrapper)

    spy("apply")
    spy("stage")

    session = _frontier_session(protocol, n_shards)
    totals = []

    def frontiers():
        for cut in cuts:
            state["frontier"] = cut
            yield cut
            totals.append(session.ledger.maintenance_total)

    session.replay_trace(trace, mode=mode, frontiers=frontiers())
    assert seen and len(totals) == len(cuts)

    # What a replay of exactly the records below each frontier charges.
    for cut, total in zip(cuts, totals):
        prefix = _frontier_session(protocol, n_shards)
        prefix.replay(
            trace.times[:cut], trace.stream_ids[:cut], trace.values[:cut],
            mode="event",
        )
        assert prefix.ledger.maintenance_total == total, cut


class _IteratorDied(Exception):
    pass


@pytest.mark.parametrize("protocol, n_shards, mode", FRONTIER_CELLS)
def test_a_raising_frontier_iterator_flushes_what_was_staged(
    protocol, n_shards, mode
):
    n = FRONTIER_TRACE.n_records

    def frontiers():
        yield n // 2
        raise _IteratorDied

    session = _frontier_session(protocol, n_shards)
    with pytest.raises(_IteratorDied):
        session.replay_trace(FRONTIER_TRACE, mode=mode, frontiers=frontiers())
    # Cleanup flushed what was staged: every source holds the value of
    # its last record below the frontier.
    expected = FRONTIER_TRACE.initial_values.copy()
    expected[FRONTIER_TRACE.stream_ids[: n // 2]] = FRONTIER_TRACE.values[: n // 2]
    assert [source.value for source in session.sources] == expected.tolist()


@pytest.mark.parametrize("mode", ["event", "batch"])
@pytest.mark.parametrize("protocol", ["ft-nrp", "zt-nrp"])
@pytest.mark.parametrize("cuts", [[30], [20, 10**9]], ids=["short", "past"])
def test_frontiers_that_miss_the_end_fail_loudly(protocol, mode, cuts):
    """Never a partial ledger handed back as if it were the run."""
    session = _frontier_session(protocol, None)
    with pytest.raises(ValueError, match="frontier"):
        session.replay_trace(FRONTIER_TRACE, mode=mode, frontiers=cuts)
    assert session.last_replay_stats is None


# ----------------------------------------------------------------------
# The columnar gate names the clause that declined
# ----------------------------------------------------------------------
class _RankListener:
    def note(self, stream_id):
        pass

    def invalidate(self):
        pass


def _forget_a_row(session):
    session.host.state.known[3] = False


#: clause -> what to do to an initialized zt-nrp session to trip it.
DECLINING = {
    "listeners": lambda session: session.host.state.add_listener(_RankListener()),
    "unknown rows": _forget_a_row,
}


@pytest.mark.parametrize("n_shards", [None, 2])
@pytest.mark.parametrize("clause", sorted(DECLINING))
def test_the_gate_names_the_clause_that_declined(clause, n_shards):
    baseline = _undivided("zt-nrp", n_shards, "batch")
    session = _frontier_session("zt-nrp", n_shards)
    DECLINING[clause](session)
    session.replay_trace(FRONTIER_TRACE, mode="batch")
    stats = session.last_replay_stats
    assert (stats["kernel"], stats["columnar_declined"]) == ("run", clause)
    assert _frontier_outcome(session) == baseline


def test_the_gate_declines_sources_that_hold_no_plain_interval():
    """Point payloads behind region memberships: the ``-2d`` host of a
    ``columnar_maintenance`` protocol."""
    spec = QuerySpec(
        "zt-nrp-2d",
        SpatialRangeQuery(BoxRegion([300.0, 300.0], [700.0, 700.0])),
    )
    workload = Workload.moving_objects(n_objects=40, horizon=60.0, seed=7)
    stats = run_forced(
        "batch", lambda: Engine().run(spec, workload, Deployment.sharded(2))
    ).extras["replay"]
    assert (stats["kernel"], stats["columnar_declined"]) == ("run", "membership")


def test_the_gate_declines_more_than_one_table():
    session = _frontier_session("zt-nrp", None)
    table = session.host.state
    gate = (FRONTIER_TRACE.values, [table, table], session.sources,
            session.host.protocol)
    assert columnar_table(*gate) == (None, "tables")


@pytest.mark.parametrize(
    "protocol, mode, kernel",
    [
        ("zt-nrp", "batch", "columnar"),  # the kernel ran
        ("ft-nrp", "batch", "columnar"),
        ("rtp", "batch", "run"),  # the protocol never asked
        ("ft-nrp", "event", None),  # nobody asked the gate
    ],
)
def test_no_label_when_nothing_was_declined(protocol, mode, kernel):
    session = _frontier_session(protocol, None)
    session.replay_trace(FRONTIER_TRACE, mode=mode)
    stats = session.last_replay_stats
    assert (stats["kernel"], stats["columnar_declined"]) == (kernel, None)


def test_the_declined_label_merges_like_the_kernel_label():
    listened = {"mode": "batch", "kernel": "run", "columnar_declined": "listeners"}
    ran = {"mode": "batch", "kernel": "columnar", "columnar_declined": None}
    assert merge_replay_stats([listened, listened])["columnar_declined"] == "listeners"
    assert merge_replay_stats([ran, ran])["columnar_declined"] is None
    merged = merge_replay_stats([listened, ran])
    assert (merged["kernel"], merged["columnar_declined"]) == ("mixed", "mixed")
