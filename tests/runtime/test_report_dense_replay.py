"""A report-dense, few-stream trace: the columnar kernel vs per-event.

``replay_columnar`` writes a chunk's reports with one scatter per plane
in time order and moves ``|A|`` by their net steps, so a stream that
reports many times inside one chunk is where a wrong winner or a wrong
count would show.  Twelve streams, most records on stream 0, values
drawn across the range's edges (about half the records are reports, a
few of them reactions that cut a chunk short): the columnar kernel at
chunk bounds 1, 7 and 4 096 must leave what forced per-event replay
leaves — ledger, answer, clock, every source's value and belief, the
table's value / report-time / believed planes, and an ``answer_size``
equal to a recount of the answer column.
"""

import numpy as np
import pytest

from repro.api import QuerySpec
from repro.queries.range_query import RangeQuery
from repro.runtime.session import ExecutionSession
from repro.streams.trace import StreamTrace
from repro.tolerance.fraction_tolerance import FractionTolerance
from replay_forcing import run_forced

N_STREAMS = 12


def dense_trace(n_records=2_000, seed=0) -> StreamTrace:
    rng = np.random.default_rng(seed)
    ids = np.where(
        rng.random(n_records) < 0.6, 0, rng.integers(1, N_STREAMS, n_records)
    )
    return StreamTrace(
        initial_values=rng.uniform(300.0, 700.0, N_STREAMS),
        times=np.arange(1.0, n_records + 1.0),
        stream_ids=ids.astype(np.int64),
        values=rng.uniform(300.0, 700.0, n_records),
        horizon=float(n_records + 1),
    )


def _outcome(spec, trace, n_shards, **bounds):
    """Everything a replay leaves behind, and its stats (mode: auto)."""
    session = ExecutionSession.assemble("streams", trace, spec.build(), n_shards)
    session.initialize()
    session.replay_trace(trace, **bounds)
    table = session.host.state
    outcome = {
        "ledger": session.snapshot(),
        "answer": session.host.protocol.answer,
        "count": session.host.protocol.count,
        "host.now": session.host.now,
        "source values": [source.value for source in session.sources],
        "source beliefs": [
            source.membership.reported_inside for source in session.sources
        ],
        "table.values": table.values.tolist(),
        "table.inside": table.inside.tolist(),
    }
    assert table.answer_size == int(np.count_nonzero(table.answer_mask))
    return outcome, session.last_replay_stats


@pytest.mark.parametrize("eps", [0.0, 0.2, 0.45])
@pytest.mark.parametrize("reinitialize", [False, True])
def test_report_dense_trace_leaves_the_event_state(eps, reinitialize):
    trace = dense_trace()
    spec = QuerySpec(
        "ft-nrp", RangeQuery(400.0, 600.0), FractionTolerance(eps, eps),
        options={"reinitialize_when_exhausted": reinitialize},
    )
    for n_shards in (None, 2):
        event, stats = run_forced(
            "event", lambda: _outcome(spec, trace, n_shards)
        )
        assert stats["mode"] == "event"
        for batch_size in (1, 7, 4096):
            batch, stats = _outcome(spec, trace, n_shards, batch_size=batch_size)
            assert stats["kernel"] == "columnar", stats["columnar_declined"]
            # Dense: most records are reports, most of them stream 0's.
            assert stats["columnar_reports"] > trace.n_records // 4
            assert stats["dispatches"] or not (eps or reinitialize)
            for key in event:
                assert batch[key] == event[key], (n_shards, batch_size, key)
