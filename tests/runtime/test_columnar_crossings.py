"""The columnar kernel's crossings, held to per-event replay.

``replay_columnar`` lists, once per block of records, the trace's
crossings of the one interval every reporting row shares, and spans cut
by them carry the reports (DESIGN.md §9).  Three things a crossings
list can get wrong, each compared with forced per-event replay on the
ledger, the answer and the final instant's violation:

* the side before a stream's first record in a call is its source's
  value tested against the interval — not the believed plane, which a
  silenced row holds at its silencer's side: an FN-silenced stream
  crosses into the interval while silenced, and a reaction re-pins it
  before its first record of the next piece (two replay calls) or
  snapshot interval (a durable run);
* a reaction that moves every row to one new interval (the crossings
  are listed again behind it) or splits the rows across two (the rest
  of the call replays per event);
* the gate: a table whose reporting rows hold two intervals goes to the
  cursor, naming the ``intervals`` clause.
"""

import numpy as np
import pytest

from repro.api import Deployment, Engine, QuerySpec, Workload
from repro.correctness.checker import violation_reason
from repro.correctness.oracle import Oracle
from repro.durability import DurabilityPolicy
from repro.network.messages import MessageKind
from repro.protocols.zt_nrp import ZeroToleranceRangeProtocol
from repro.queries.range_query import RangeQuery
from repro.runtime.replay import live_interval
from repro.runtime.session import ExecutionSession
from repro.state.table import StreamStateTable, membership_mask
from repro.streams.trace import StreamTrace
from repro.tolerance.fraction_tolerance import FractionTolerance
from replay_forcing import run_forced

QUERY = RangeQuery(400.0, 600.0)
#: No false-positive pool; the false-negative pool is stream 6 alone.
SPEC = QuerySpec("ft-nrp", QUERY, FractionTolerance(0.0, 0.2))
SILENCED = 6


def repin_trace() -> StreamTrace:
    """Stream 6 starts FN-silenced at 390 and crosses in at record 1;
    record 2 (stream 0 leaves with ``count == 0``) spends the FN pool,
    which re-pins stream 6 at 450; its record 3 stays inside."""
    return StreamTrace(
        initial_values=np.array([500.0, 450.0, 550.0, 520.0, 300.0, 700.0, 390.0]),
        times=np.array([1.0, 2.0, 3.0, 4.0]),
        stream_ids=np.array([1, SILENCED, 0, SILENCED]),
        values=np.array([460.0, 450.0, 700.0, 460.0]),
        horizon=5.0,
    )


def final_violation(answer, trace, tolerance):
    """The final instant's verdict on *answer* against the trace's truth."""
    values = trace.initial_values.copy()
    values[trace.stream_ids] = trace.values
    oracle = Oracle(values)
    oracle.register_query(QUERY)
    mask = membership_mask(answer, len(values))
    return violation_reason(mask, oracle, QUERY, tolerance)


def _pieces(trace, cut, mode):
    """Replay *trace* in two calls, ``[0, cut)`` and ``[cut, n)``, with
    the offset predecessor slices the durable runner passes."""
    protocol = SPEC.build()
    session = ExecutionSession.assemble("streams", trace, protocol)
    session.initialize()
    assert list(protocol._fn_pool) == [SILENCED]
    previous = trace.previous_record
    columns = trace.times, trace.stream_ids, trace.values
    kernels = []
    for a, b in ((0, cut), (cut, trace.n_records)):
        session.replay(
            *(column[a:b] for column in columns), mode=mode,
            previous=previous[a:b] - a,
        )
        kernels.append(session.last_replay_stats["kernel"])
    assert SILENCED not in protocol._fn_pool  # the reaction re-pinned it
    answer = protocol.answer
    return (
        session.snapshot(), answer, final_violation(answer, trace, SPEC.tolerance)
    ), kernels


def test_a_stream_repinned_in_a_later_piece_starts_on_its_value():
    trace = repin_trace()
    event, kernels = _pieces(trace, 2, "event")
    assert kernels == [None, None]
    batch, kernels = _pieces(trace, 2, "batch")
    assert kernels == ["columnar", "columnar"]
    assert batch == event
    # Stream 0's leave is the one report; the re-pin probes and deploys.
    assert event[0].maintenance[MessageKind.UPDATE] == 1
    assert event[0].maintenance[MessageKind.CONSTRAINT] == 1


def test_a_stream_repinned_in_a_later_snapshot_interval_starts_on_its_value(
    tmp_path,
):
    trace = repin_trace()
    workload = Workload.from_trace(trace)

    def run(name):
        policy = DurabilityPolicy(
            run_dir=str(tmp_path / name), snapshot_every=2, segment_records=1
        )
        return Engine().run(SPEC, workload, Deployment.single(durable=policy))

    event = run_forced("event", lambda: run("event"))
    batch = run("batch")
    assert batch.extras["replay"]["kernel"] == "columnar"
    assert batch.extras["durability"]["snapshots"]["count"] == 1
    for report in (event, batch):
        assert final_violation(report.final_answer, trace, SPEC.tolerance) is None
    assert (batch.ledger, batch.final_answer, batch.violations) == (
        event.ledger, event.final_answer, event.violations
    )


# ----------------------------------------------------------------------
# Reactions that move the interval
# ----------------------------------------------------------------------
MOVED = RangeQuery(300.0, 500.0)


class _Redeploying(ZeroToleranceRangeProtocol):
    """ZT-NRP whose *at*-th report is a reaction that deploys *moved* to
    *rows* (``None``: every row).  A report's answer is the side of the
    row's own interval, as the columnar contract has it."""

    def __init__(self, rows):
        super().__init__(QUERY)
        self.rows, self.at, self.seen = rows, 12, 0

    def absorb_reports(self, entering):
        quiet = len(entering)
        if self.seen < self.at:
            quiet = min(quiet, self.at - 1 - self.seen)
        self.seen += quiet
        return quiet

    def on_update(self, server, stream_id, value, time):
        table = self._state
        if table.lower[stream_id] <= value <= table.upper[stream_id]:
            table.answer_add(stream_id)
        else:
            table.answer_discard(stream_id)
        self.seen += 1
        if self.seen == self.at:
            server.deploy_many(self.rows, MOVED.bound)


@pytest.fixture(scope="module")
def lively():
    return Workload.synthetic(
        n_streams=24, horizon=400.0, sigma=150.0, seed=3
    ).materialize()


def _redeployed(trace, rows, mode):
    protocol = _Redeploying(rows)
    session = ExecutionSession.assemble("streams", trace, protocol)
    session.initialize()
    session.replay_trace(trace, mode=mode)
    assert protocol.seen > protocol.at  # reports on both sides of the move
    table = session.host.state
    return (
        session.snapshot(), protocol.answer, table.lower.tolist(),
        table.inside.tolist(), [source.value for source in session.sources],
    ), session.last_replay_stats


@pytest.mark.parametrize(
    "rows, per_event", [(None, False), (range(12), True)], ids=["moved", "split"]
)
def test_a_reaction_that_moves_the_interval(lively, rows, per_event):
    """Moved whole, the crossings are listed again and the kernel goes
    on; split, the rest of the call replays per event."""
    event, _ = _redeployed(lively, rows, "event")
    batch, stats = _redeployed(lively, rows, "batch")
    assert batch == event
    assert stats["kernel"] == "columnar"
    bailout = stats["dispatch_bailout_at"]
    assert (bailout is not None) == per_event
    if per_event:
        # Every record from the one past the reaction dispatched.
        assert stats["dispatches"] == lively.n_records - bailout + 1
    else:
        # One reaction; the 11 quiet reports before it and more behind it.
        assert stats["dispatches"] == 1 and stats["columnar_reports"] > 2 * 11


# ----------------------------------------------------------------------
# The precondition, checked
# ----------------------------------------------------------------------
def _table(intervals):
    table = StreamStateTable(len(intervals))
    for row, (lower, upper) in enumerate(intervals):
        table.lower[row], table.upper[row] = lower, upper
    return table


INF = float("inf")
#: rows' intervals, the guess, and ``(lower, upper, rows that hold it)``.
LIVE_INTERVALS = {
    "one": ([(4.0, 6.0)] * 3, None, (4.0, 6.0, None)),
    "silencers": (
        [(4.0, 6.0), (-INF, INF), (INF, INF)], None, (4.0, 6.0, [True, False, False])
    ),
    "two": ([(4.0, 6.0), (1.0, 6.0), (INF, INF)], None, (None, None, None)),
    "guessed": ([(4.0, 6.0), (INF, INF)], (4.0, 6.0), (4.0, 6.0, [True, False])),
    "all moved": ([(1.0, 2.0), (INF, INF)], (4.0, 6.0), (1.0, 2.0, [True, False])),
    "some moved": ([(1.0, 2.0), (4.0, 6.0)], (4.0, 6.0), (None, None, None)),
}


@pytest.mark.parametrize("intervals, guess, expected", LIVE_INTERVALS.values(),
                         ids=LIVE_INTERVALS.keys())
def test_live_interval(intervals, guess, expected):
    guessed = () if guess is None else (guess,)
    lower, upper, held = live_interval(_table(intervals), *guessed)
    assert (lower, upper, None if held is None else held.tolist()) == expected


def test_only_silencers_hold_an_interval_that_contains_nothing():
    lower, upper, held = live_interval(_table([(-INF, INF), (INF, INF)]))
    assert np.isnan(lower) and np.isnan(upper) and not held.any()


def test_the_gate_declines_rows_on_two_intervals(lively):
    def run(mode):
        session = ExecutionSession.assemble(
            "streams", lively, QuerySpec("zt-nrp", QUERY).build()
        )
        session.initialize()
        session.host.deploy_many([3], MOVED.bound)
        session.replay_trace(lively, mode=mode)
        return session.snapshot(), session.last_replay_stats

    event, _ = run("event")
    batch, stats = run("batch")
    assert (stats["kernel"], stats["columnar_declined"]) == ("run", "intervals")
    assert batch == event
