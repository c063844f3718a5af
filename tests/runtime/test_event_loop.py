"""The event strategy's one per-event loop (DESIGN.md §8.2, §9).

In the event strategy ``ExecutionSession.replay`` hands the rest of each
frontier to ``ReplayCursor.dispatch_to`` — one loop over plain lists of
times, ids and payloads — whether the cursor started there or bailed out
to it mid-replay.  The loop must leave the forced-``event`` ledger, and
the per-record hooks must see every record once, in order.
"""

import numpy as np
import pytest

from repro.network.latency import FixedLatency, UniformLatency
from repro.protocols.base import FilterProtocol
from repro.runtime.replay import ReplayCursor
from repro.runtime.session import ExecutionSession
from repro.streams.trace import StreamTrace

WIDTH = 40.0


class Recenter(FilterProtocol):
    """A window around every stream's last value, re-centred on update."""

    name = "recenter"

    def initialize(self, server) -> None:
        for stream_id, value in enumerate(server.probe_all()):
            server.deploy(stream_id, value - WIDTH, value + WIDTH)

    def on_update(self, server, stream_id, value, time) -> None:
        server.deploy(stream_id, value - WIDTH, value + WIDTH)


def _lively_trace(n=2000, seed=8):
    """Mostly jumps far outside the windows: the cursor bails out."""
    rng = np.random.default_rng(seed)
    return StreamTrace(
        initial_values=np.full(8, 500.0),
        times=np.arange(1.0, n + 1.0),
        stream_ids=rng.integers(0, 8, size=n),
        values=np.where(rng.random(n) < 0.8, rng.uniform(0.0, 1000.0, n), 500.0),
        horizon=float(n + 1),
    )


@pytest.fixture
def loops(monkeypatch):
    """Every ``dispatch_to`` the event strategy runs: ``(start, stop)``."""
    calls = []
    dispatch_to = ReplayCursor.dispatch_to

    def spy(self, stop, before=None, after=None):
        if self.per_event:
            calls.append((self.pos, stop))
        dispatch_to(self, stop, before, after)

    monkeypatch.setattr(ReplayCursor, "dispatch_to", spy)
    return calls


def _replay(trace, mode, frontiers, latency=None, **hooks):
    session = ExecutionSession.for_streams(trace, Recenter(), latency=latency)
    session.initialize()
    session.replay_trace(
        trace, mode=mode, frontiers=frontiers, batch_size=64, min_chunk=8, **hooks
    )
    observed = (session.snapshot(), [source.value for source in session.sources])
    return observed, session.last_replay_stats


def test_a_bailout_mid_frontier_hands_the_rest_to_the_loop(loops):
    trace = _lively_trace()
    n = trace.n_records
    frontiers = [n // 3, 2 * n // 3, n]
    reference, _ = _replay(trace, "event", frontiers)
    del loops[:]
    observed, stats = _replay(trace, "batch", frontiers)
    assert observed == reference
    bailout = stats["dispatch_bailout_at"]
    assert 0 < bailout < frontiers[0]  # strictly inside the first frontier
    assert stats["staged"] > 0
    # From the bailout on, one loop per frontier, each to its end.
    assert loops == [(bailout, frontiers[0]), (frontiers[0], frontiers[1]),
                     (frontiers[1], n)]
    assert stats["dispatches"] + stats["staged"] == n


def test_the_event_strategy_replays_each_frontier_in_one_loop(loops):
    trace = _lively_trace(n=300)
    frontiers = [0, 10, 10, 150, 300]
    observed, stats = _replay(trace, "event", frontiers)
    assert loops == [(0, 10), (10, 150), (150, 300)]
    assert stats["dispatches"] == 300 and stats["staged"] == 0
    assert observed == _replay(trace, "event", None)[0]


@pytest.mark.parametrize("latency", [None, UniformLatency(0.5, 4.0, seed=3)])
def test_the_hooks_see_every_record_once_in_order(latency):
    trace = _lively_trace(n=300)
    seen, ticks = [], []
    observed, stats = _replay(
        trace, "auto", [120, 300], latency,
        oracle_apply=lambda stream_id, value: seen.append((stream_id, value)),
        after_apply=ticks.append,
    )
    assert stats["mode"] == "event"
    assert seen == list(zip(trace.stream_ids.tolist(), trace.values.tolist()))
    assert ticks == trace.times.tolist()
    assert observed == _replay(trace, "event", None, latency)[0]


class _Logged(FilterProtocol):
    """Logs every update it is delivered; reacts with nothing."""

    name = "logged"

    def __init__(self, log) -> None:
        self.log = log

    def initialize(self, server) -> None:
        server.probe_all()
        for stream_id in (0, 1):
            server.deploy(stream_id, 0.0, 100.0)

    def on_update(self, server, stream_id, value, time) -> None:
        self.log.append(("delivered", stream_id))


def test_a_delivery_due_at_a_records_instant_fires_first():
    """Stream 0's crossing at t=1 reaches the server at 1.5, the instant
    of stream 1's record.  The delivery was scheduled first, so engine
    FIFO fires it before that record applies."""
    trace = StreamTrace(
        initial_values=np.array([50.0, 50.0]),
        times=np.array([1.0, 1.5]),
        stream_ids=np.array([0, 1]),
        values=np.array([150.0, 150.0]),
        horizon=5.0,
    )
    log = []
    session = ExecutionSession.for_streams(
        trace, _Logged(log), latency=FixedLatency(0.5, 0.5)
    )
    session.initialize()
    session.replay_trace(trace, after_apply=lambda time: log.append(("applied", time)))
    assert log == [("applied", 1.0), ("delivered", 0), ("applied", 1.5), ("delivered", 1)]
