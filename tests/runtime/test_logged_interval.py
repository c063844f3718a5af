"""The columnar kernel re-checks only the rows a reaction logged.

Behind a reaction that wrote constraints, ``replay_columnar`` reads the
table's write log (``logged_interval``, DESIGN.md §9): each logged row
is now on the live interval (it holds it), on a silencer (it does not,
and its crossings stop being reports) or elsewhere — then the
whole-table ``live_interval`` decides, as it did after every reaction
before the log.  ZT-NRP and FT-NRP only re-pin rows onto the interval
behind a reaction; a stub here silences rows mid-run, from a table with
no silencer and from one with some, and per-event replay is the oracle.
"""

import math

import numpy as np
import pytest

from repro.api import Workload
from repro.protocols.zt_nrp import ZeroToleranceRangeProtocol
from repro.queries.range_query import RangeQuery
from repro.runtime.replay import live_interval, logged_interval
from repro.runtime.session import ExecutionSession
from repro.state.table import StreamStateTable

QUERY = RangeQuery(400.0, 600.0)
INF = math.inf


class _Silencing(ZeroToleranceRangeProtocol):
    """ZT-NRP whose *at*-th report is a reaction that deploys a
    false-positive silencer to *fp* and a false-negative one to *fn*,
    one message each — after silencing *first* at initialization."""

    def __init__(self, fp, fn, first=()):
        super().__init__(QUERY)
        self.fp, self.fn, self.first = fp, fn, first
        self.at, self.seen = 12, 0

    def initialize(self, server):
        super().initialize(server)
        for row in self.first:
            server.deploy(row, INF, INF)

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
            for row in self.fp:
                server.deploy(row, -INF, INF)
            for row in self.fn:
                server.deploy(row, INF, INF)


@pytest.fixture(scope="module")
def lively():
    return Workload.synthetic(
        n_streams=24, horizon=400.0, sigma=150.0, seed=3
    ).materialize()


def _silenced(trace, mode, **rows):
    protocol = _Silencing(**rows)
    session = ExecutionSession.assemble("streams", trace, protocol)
    session.initialize()
    session.replay_trace(trace, mode=mode)
    table = session.host.state
    return (
        session.snapshot(), protocol.answer, table.lower.tolist(),
        table.inside.tolist(), session.sources.values.tolist(),
    ), session.last_replay_stats


@pytest.mark.parametrize(
    "rows",
    [
        {"fp": [3, 8], "fn": [5]},
        {"fp": [3], "fn": [5, 17], "first": [11]},
    ],
    ids=["every row held", "some silenced"],
)
def test_rows_silenced_by_a_reaction_stop_reporting(lively, rows):
    event, _ = _silenced(lively, "event", **rows)
    batch, stats = _silenced(lively, "batch", **rows)
    assert stats["kernel"] == "columnar" and stats["dispatch_bailout_at"] is None
    assert stats["dispatches"] == 1
    assert batch == event


def _table(intervals):
    table = StreamStateTable(len(intervals))
    for row, (lower, upper) in enumerate(intervals):
        table.lower[row], table.upper[row] = lower, upper
    return table


def test_the_log_narrows_the_whole_table_pass():
    table = _table([(4.0, 6.0)] * 4)
    lower, upper, held = live_interval(table)
    assert held is None
    table.write_log = []
    table.lower[1], table.upper[1] = -INF, INF
    table.lower[2] = table.upper[2] = INF
    table._note_constraint(1)
    table._note_constraint(np.array([2]))
    narrowed = logged_interval(table, (lower, upper), held)
    assert narrowed[:2] == (4.0, 6.0)
    assert narrowed[2].tolist() == [True, False, False, True]
    assert table.write_log == []
    table.lower[1], table.upper[1] = 4.0, 6.0  # re-pinned
    table._note_constraint(1)
    narrowed = logged_interval(table, narrowed[:2], narrowed[2])
    assert narrowed[2].tolist() == [True, True, False, True]
    # A row on a third interval: the whole-table pass decides.
    table.lower[0] = 5.0
    table._note_constraint(range(1))
    assert logged_interval(table, narrowed[:2], narrowed[2])[:2] == (None, None)
