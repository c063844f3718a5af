"""The columnar kernel reads a trace's crossings from its memo
(``StreamTrace.crossings``, DESIGN.md §9).

Three replays of one trace must leave one ledger and one answer: over
the trace's memo, over the bare record arrays (the kernel lists their
crossings from the population's values as the call begins), and per
event.  The first two must also leave the same stats: they cut the same
spans.  Held at every cut of a two-piece replay of the short ``lively``
and ``quiet`` traces ``test_predecessor_index.py`` uses, through a
durable run (a memo windowed to each snapshot interval) and its
kill-and-resume, and for a population that no longer holds the trace's
initial values, which must not read the memo at all.
"""

from unittest import mock

import numpy as np
import pytest

import repro
from repro.api import Deployment, Engine, QuerySpec, Workload
from repro.durability import DurabilityPolicy, execute_durable_streams, resume_run
from repro.runtime import replay as replay_module
from repro.runtime.session import ExecutionSession
from replay_forcing import run_forced

RANGE = repro.RangeQuery(400.0, 600.0)
#: Patched over ``replay.StreamTrace``: a replay that must read a memo
#: fails if it lists the crossings of its arrays instead.
NO_BARE_LISTING = mock.patch.object(
    replay_module, "StreamTrace", side_effect=AssertionError
)
SPECS = {
    "zt-nrp": QuerySpec("zt-nrp", RANGE),
    "ft-nrp": QuerySpec("ft-nrp", RANGE, repro.FractionTolerance(0.2, 0.2)),
}
#: ``test_predecessor_index.py``'s two traces (~120 records each).
TRACES = {
    "lively": Workload.synthetic(n_streams=40, horizon=60.0, sigma=150.0, seed=5),
    "quiet": Workload.synthetic(n_streams=40, horizon=60.0, sigma=25.0, seed=5),
}


def _two_pieces(spec, trace, cut, arm):
    """Replay ``[0, cut)`` then ``[cut, n)`` on one session, over the
    memo (*arm* ``"memo"``), the bare arrays (``"bare"``) or per event
    (``"event"``); returns ``(ledger, answer, per-piece stats)``."""
    session = ExecutionSession.assemble("streams", trace, spec.build())
    session.initialize()
    columns = trace.times, trace.stream_ids, trace.values
    stats = []
    for a, b in ((0, cut), (cut, trace.n_records)):
        kwargs = {"mode": "event" if arm == "event" else "batch"}
        if arm == "memo":
            kwargs["crossings"] = lambda lo, hi, a=a: trace.crossings(lo, hi) - a
        session.replay(*(column[a:b] for column in columns), **kwargs)
        stats.append(dict(session.last_replay_stats))
    return session.snapshot(), session.host.protocol.answer, stats


@pytest.mark.parametrize("shape", sorted(TRACES))
@pytest.mark.parametrize("protocol", sorted(SPECS))
def test_memo_bare_and_per_event_replays_agree_at_every_cut(protocol, shape):
    spec, trace = SPECS[protocol], TRACES[shape].materialize()
    for cut in range(trace.n_records + 1):
        with NO_BARE_LISTING:
            memo = _two_pieces(spec, trace, cut, "memo")
        bare = _two_pieces(spec, trace, cut, "bare")
        event = _two_pieces(spec, trace, cut, "event")
        assert {s["kernel"] for s in memo[2] + bare[2]} == {"columnar"}, cut
        assert memo == bare, cut
        assert memo[:2] == event[:2], cut


@pytest.mark.parametrize("protocol", sorted(SPECS))
def test_a_trace_replay_reads_the_memo(protocol):
    spec, trace = SPECS[protocol], TRACES["lively"].materialize()
    whole = _two_pieces(spec, trace, trace.n_records, "bare")
    session = ExecutionSession.assemble("streams", trace, spec.build())
    session.initialize()
    with NO_BARE_LISTING:
        session.replay_trace(trace, mode="batch")
    assert (RANGE.lower, RANGE.upper) in trace.__dict__["_crossings"]
    assert session.snapshot() == whole[0]
    assert session.host.protocol.answer == whole[1]


class Kill(BaseException):
    """Raised from the progress hook: a process death mid-run."""


@pytest.mark.parametrize("protocol", sorted(SPECS))
def test_a_durable_run_and_its_resume_read_the_windowed_memo(protocol, tmp_path):
    spec = SPECS[protocol]
    workload = Workload.synthetic(n_streams=40, horizon=60.0, sigma=150.0, seed=9)
    trace = workload.materialize()
    plain = run_forced("event", lambda: Engine().run(spec, workload))

    def policy(name):
        return DurabilityPolicy(
            run_dir=str(tmp_path / name), snapshot_every=16, segment_records=8
        )

    with NO_BARE_LISTING:
        durable = Engine().run(
            spec, workload, Deployment.single(durable=policy("whole"))
        )
    assert durable.extras["replay"]["kernel"] == "columnar"
    assert durable.extras["durability"]["snapshots"]["count"] > 3
    assert (durable.ledger, durable.final_answer) == (plain.ledger, plain.final_answer)

    killed = policy("killed")

    def progress(position):
        if position >= trace.n_records // 2:
            raise Kill

    with pytest.raises(Kill):
        execute_durable_streams(
            trace, spec.build(), Deployment.single(durable=killed), progress=progress
        )
    resumed = resume_run(killed.run_dir, trace)
    assert resumed.extras["durability"]["recovered"]
    assert resumed.extras["replay"]["kernel"] == "columnar"
    assert resumed.ledger == plain.ledger
    assert resumed.final_answer == plain.final_answer


@pytest.mark.parametrize("protocol", sorted(SPECS))
def test_a_population_moved_off_the_initial_values_lists_its_own(protocol):
    """A prelude of records moves every other stream across the range
    before the trace replays: the memo, listed from the initial values,
    would start those streams on the wrong side."""
    spec, trace = SPECS[protocol], TRACES["lively"].materialize()
    rows = np.arange(0, trace.n_streams, 2)
    start = trace.initial_values[rows]
    inside = (RANGE.lower <= start) & (start <= RANGE.upper)
    prelude = (np.zeros(len(rows)), rows, np.where(inside, 900.0, 500.0))

    def run(mode):
        session = ExecutionSession.assemble("streams", trace, spec.build())
        session.initialize()
        session.replay(*prelude, mode=mode)
        with mock.patch.object(trace, "crossings", side_effect=AssertionError):
            session.replay_trace(trace, mode=mode)
        stats = session.last_replay_stats
        return session.snapshot(), session.host.protocol.answer, stats["kernel"]

    batch, event = run("batch"), run("event")
    assert batch[2] == "columnar"
    assert batch[:2] == event[:2]
