"""A constraint write names the rows it moved: the table's write log.

Every writer of a state table's constraint planes — ``lower``,
``upper``, ``inside``, ``scannable`` — appends the rows it wrote to the
table's write log while a replay reader holds it open, and the readers
re-check only those rows (DESIGN.md §9).  So the log must name every
row whose planes moved, and — to be worth reading — no row that the
write did not address.  The diff of the four planes taken around every
per-event step (``replay._apply``), every message a step delivers to a
source, bulk install and bulk probe is the oracle:

    moved rows  ⊆  logged rows  ⊆  rows the step addressed

(a write may rewrite a row's planes with the values they held, so the
log can name a row the diff does not).  "Addressed" is the records'
rows and the rows of every message or bulk batch the step sent.  A
shard view logs in its parent's coordinates, which the second property
drives through views directly: no judged host writes a view's
constraint planes.
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro
from repro import Deployment, Engine, QuerySpec, RankTolerance, TopKQuery, Workload
from repro.network.accounting import MessageLedger
from repro.network.channel import Channel
from repro.network.latency import FixedLatency
from repro.network.messages import ConstraintMessage, ProbeRequestMessage
from repro.runtime import replay
from repro.runtime.membership import belief_column
from repro.server import transport
from repro.state.sharding import StateShardView, shard_ranges
from repro.state.table import WRITE_LOG_CAP, StreamStateTable
from repro.streams import control, vocabulary
from repro.streams.source import ScalarPopulation

PLANES = ("lower", "upper", "inside", "scannable")

SPECS = {
    "zt-nrp": QuerySpec("zt-nrp", repro.RangeQuery(400.0, 600.0)),
    "ft-nrp": QuerySpec(
        "ft-nrp", repro.RangeQuery(400.0, 600.0), repro.FractionTolerance(0.2, 0.2)
    ),
    "rtp": QuerySpec("rtp", TopKQuery(5), RankTolerance(5, 3)),
    "value-eps": QuerySpec("value-eps", TopKQuery(k=5), options={"eps": 60.0}),
}


def _planes(table):
    return [getattr(table, name).copy() for name in PLANES]


def _moved(before, table) -> set[int]:
    moved = np.zeros(table.n_streams, dtype=bool)
    for old, name in zip(before, PLANES):
        moved |= old != getattr(table, name)
    return set(np.flatnonzero(moved).tolist())


def _rows(entries, n) -> set[int]:
    """The rows *entries* name (``None``: every row)."""
    rows: set[int] = set()
    for entry in entries:
        named = range(n) if entry is None else np.asarray(entry).reshape(-1).tolist()
        rows.update(named)
    assert all(0 <= row < n for row in rows), rows
    return rows


class Observer:
    """Checks the log around each wrapped write; a stack of frames, so
    a bulk install inside a reaction counts toward both."""

    def __init__(self):
        self.frames = []
        self.checked = {"apply": 0, "message": 0, "install": 0, "probe": 0}

    @contextmanager
    def frame(self, kind, table, addressed):
        opened = table.write_log is None
        if opened:
            table.write_log = []
        log, start = table.write_log, len(table.write_log)
        before = _planes(table)
        frame = set(addressed)
        self.frames.append((frame, table))
        try:
            yield
        finally:
            self.frames.pop()
            if opened:
                table.write_log = None
        if self.frames:
            self.frames[-1][0].update(frame)
        if len(log) > WRITE_LOG_CAP:  # full: it stands for every row
            return
        moved = _moved(before, table)
        logged = _rows(log[start:], table.n_streams)
        assert moved <= logged, (kind, sorted(moved - logged))
        assert logged <= frame, (kind, sorted(logged - frame))
        self.checked[kind] += 1

    def address(self, rows):
        if self.frames:
            self.frames[-1][0].update(np.asarray(rows).reshape(-1).tolist())


@contextmanager
def observed():
    observer = Observer()
    apply, install = replay._apply, control.install_constraints
    probe = control.probe_sources
    send = Channel.send_to_source

    def observed_apply(sources, engine, times, ids, payloads, *hooks):
        with observer.frame("apply", sources.table, ids):
            apply(sources, engine, times, ids, payloads, *hooks)

    def observed_install(channel, table, ids, *args):
        observer.address(ids)
        with observer.frame("install", table, np.asarray(ids)):
            return install(channel, table, ids, *args)

    def observed_probe(channel, table, ids):
        observer.address(ids)
        with observer.frame("probe", table, ids):
            return probe(channel, table, ids)

    def observed_send(channel, message):
        observer.address(message.stream_id)
        if not observer.frames:  # outside a replay step: nothing to check
            return send(channel, message)
        with observer.frame("message", observer.frames[-1][1], [message.stream_id]):
            return send(channel, message)

    with mock.patch.object(replay, "_apply", observed_apply), \
            mock.patch.object(control, "install_constraints", observed_install), \
            mock.patch.object(vocabulary, "install_constraints", observed_install), \
            mock.patch.object(control, "probe_sources", observed_probe), \
            mock.patch.object(transport, "probe_sources", observed_probe), \
            mock.patch.object(Channel, "send_to_source", observed_send):
        yield observer


@given(
    protocol=st.sampled_from(sorted(SPECS)),
    topology=st.sampled_from(["single", "sharded"]),
    n_streams=st.integers(12, 60),
    horizon=st.floats(20.0, 80.0),
    sigma=st.sampled_from([20.0, 60.0, 150.0]),
    seed=st.integers(0, 10_000),
)
@example("ft-nrp", "single", 60, 80.0, 60.0, 3)
@example("ft-nrp", "sharded", 60, 80.0, 60.0, 3)
@example("rtp", "sharded", 40, 60.0, 150.0, 1)
@example("value-eps", "single", 40, 60.0, 60.0, 2)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_the_log_names_the_rows_each_write_moved(
    protocol, topology, n_streams, horizon, sigma, seed
):
    workload = Workload.synthetic(
        n_streams=n_streams, horizon=horizon, sigma=sigma, seed=seed
    )
    deployment = Deployment.single() if topology == "single" else Deployment.sharded(2)
    with observed():
        report = Engine().run(SPECS[protocol], workload, deployment)
    plain = Engine().run(SPECS[protocol], workload, deployment)
    assert report.ledger == plain.ledger


@pytest.mark.parametrize("topology", ["single", "sharded"])
@pytest.mark.parametrize(
    "protocol, writers", [("ft-nrp", 4), ("rtp", 3), ("value-eps", 1)]
)
def test_the_checks_reach_every_writer(protocol, writers, topology):
    """Fixed cells reach a reacting record on every host — and ft-nrp a
    message, a bulk install and a bulk probe, rtp a message and a bulk
    install — so the property above is never vacuous."""
    workload = Workload.synthetic(n_streams=60, horizon=80.0, sigma=60.0, seed=3)
    deployment = Deployment.single() if topology == "single" else Deployment.sharded(2)
    with observed() as observer:
        Engine().run(SPECS[protocol], workload, deployment)
    assert sum(map(bool, observer.checked.values())) >= writers, observer.checked
    assert observer.checked["apply"], observer.checked


# ----------------------------------------------------------------------
# Shard views log in their parent's coordinates
# ----------------------------------------------------------------------
N = 12
RANGES = shard_ranges(N, 2)

ops = st.lists(
    st.tuples(
        st.sampled_from(["install", "probe", "apply", "deploy", "record", "probe_one"]),
        st.integers(0, 1),  # which view
        st.lists(st.integers(0, 6), min_size=1, max_size=4, unique=True),
        st.floats(-1.0, 11.0),
        st.floats(0.0, 6.0),
        st.sampled_from([None, True, False]),
    ),
    min_size=1,
    max_size=25,
)


def _views():
    parent = StreamStateTable(N)
    parent.write_log = []
    rng = np.random.default_rng(5)
    shards = []
    for lo, hi in RANGES:
        view = StateShardView(parent, lo, hi)
        channel = Channel(MessageLedger())
        channel.bind_server(lambda message: None)
        values = rng.uniform(0, 10, hi - lo)
        population = ScalarPopulation(values, [channel], [(0, hi - lo)])
        population.bind_state(view)
        shards.append((view, channel, population))
    return parent, shards


@given(ops)
@example([("install", 1, [0, 2], 3.0, 2.0, None), ("apply", 1, [2], 9.0, 0.0, None)])
@settings(max_examples=200, deadline=None)
def test_a_shard_view_logs_parent_rows(steps):
    parent, shards = _views()
    for kind, which, rows, value, width, belief in steps:
        view, channel, population = shards[which]
        lo, size = view.lo, view.n_streams
        local = np.array(sorted({row % size for row in rows}), dtype=np.int64)
        before, start = _planes(parent), len(parent.write_log)
        if kind == "install":
            lower = np.full(len(local), value)
            assert control.install_constraints(
                channel, view, local, (lower, lower + width),
                belief_column(belief, (len(local),)), 1.0,
            )
        elif kind == "probe":
            assert control.probe_sources(channel, view, local) is not None
        elif kind == "apply":
            population.apply(int(local[0]), value, 1.0)
        elif kind == "deploy":
            channel.send_to_source(
                ConstraintMessage(int(local[0]), 1.0, value, value + width, belief)
            )
        elif kind == "probe_one":
            channel.send_to_source(ProbeRequestMessage(int(local[0]), 1.0))
        else:
            view.record_deploy(int(local[0]), value, value + width)
        if len(parent.write_log) > WRITE_LOG_CAP // 2:
            parent.write_log = []
            continue
        logged = _rows(parent.write_log[start:], N)
        assert _moved(before, parent) <= logged
        assert logged <= set((lo + local).tolist())


def test_a_broadcast_is_one_entry_and_a_full_log_stands_for_every_row():
    table = StreamStateTable(5)
    table._note_constraint(1)  # closed: keeps nothing
    assert table.write_log is None
    table.write_log = []
    table._note_constraint(range(5))
    assert table.write_log == [range(5)]
    for row in range(WRITE_LOG_CAP):
        table._note_constraint(row % 5)
    assert len(table.write_log) == WRITE_LOG_CAP + 1 and table.write_log[-1] is None
    table._note_constraint(2)  # nothing more once it stands for every row
    assert table.write_log[-1] is None and len(table.write_log) == WRITE_LOG_CAP + 1
    assert replay.logged_rows(table) is None and table.write_log == []
    table._note_constraint(range(10**12))  # read by its length, never listed
    assert replay.logged_rows(table) is None
    view = StateShardView(table, 2, 5)
    view._note_constraint()
    assert table.write_log == [range(2, 5)]


def test_a_per_event_run_keeps_no_log():
    """Nothing reads the log on the event strategy, so no write finds it
    open: a checked latency run installs and probes many rows."""
    seen = []
    note = StreamStateTable._note_constraint

    def spy(table, rows=None):
        seen.append(table.write_log)
        note(table, rows)

    workload = Workload.synthetic(n_streams=50, horizon=40.0, sigma=60.0, seed=4)
    deployment = Deployment.single(check_every=1, latency=FixedLatency.symmetric(0.5))
    with mock.patch.object(StreamStateTable, "_note_constraint", spy):
        report = Engine().run(SPECS["ft-nrp"], workload, deployment)
    assert report.extras["replay"]["mode"] == "event"
    assert seen and all(log is None for log in seen)
