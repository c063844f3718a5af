"""Fault injection over the whole RPC vocabulary (ROADMAP needle 3).

The grid is generated from :attr:`ShardWorker.OPS` — an op added to the
table that the workload below never posts to worker 1 fails the suite.
For every op, on RTP and on FT-NRP, worker 1 dies either just before
the coordinator posts its first such request to it or just after (the
request written to the pipe, never answered), through the public
``Engine.run``.  The contract: a prompt :class:`TransportError`, no
report, every worker process reaped — never a hang, never a partial
ledger.

Two desynchronization cases ride along: a ``dispatch`` of a position
the worker does not own and an op outside the vocabulary both come back
as a :class:`TransportError` carrying the worker's own traceback.
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro.api import Deployment, Engine, QuerySpec, Workload
from repro.queries.knn import TopKQuery
from repro.queries.range_query import RangeQuery
from repro.server.transport import (
    CoordinatorBus,
    ShardWorker,
    TransportError,
    TransportShardedServer,
)
from repro.tolerance.fraction_tolerance import FractionTolerance
from repro.tolerance.rank_tolerance import RankTolerance

#: Lively enough that both protocols reach every op at worker 1 — the
#: single ``probe`` included, which a quiet trace never sends.
WORKLOAD = Workload.synthetic(n_streams=100, horizon=30.0, sigma=150.0, seed=7)

SPECS = {
    "rtp": QuerySpec(
        protocol="rtp",
        query=TopKQuery(k=5),
        tolerance=RankTolerance(k=5, r=3),
    ),
    "ft-nrp": QuerySpec(
        protocol="ft-nrp",
        query=RangeQuery(400.0, 600.0),
        tolerance=FractionTolerance(0.2, 0.2),
    ),
}

VICTIM = 1


def _kill_at(monkeypatch, op: str, when: str) -> list:
    """Patch the bus so the first *op* posted to the victim kills it;
    returns the list the kill is recorded in."""
    fired: list = []
    post = CoordinatorBus.post

    def faulty_post(self, index, request):
        if fired or index != VICTIM or request[0] != op:
            return post(self, index, request)
        process = self.handle(index).process
        fired.append(process)
        if when == "before":
            process.terminate()
            process.join(timeout=5.0)
            return post(self, index, request)
        # Freeze the worker first, so the request lands in its pipe but
        # can never be read: the death falls between post and reply.
        os.kill(process.pid, signal.SIGSTOP)
        post(self, index, request)
        process.kill()
        process.join(timeout=5.0)

    monkeypatch.setattr(CoordinatorBus, "post", faulty_post)
    return fired


@pytest.mark.parametrize("when", ["before", "after"])
@pytest.mark.parametrize("op", sorted(ShardWorker.OPS))
@pytest.mark.parametrize("protocol", sorted(SPECS))
def test_a_worker_dying_at_any_op_raises_promptly(
    monkeypatch, protocol, op, when
):
    fired = _kill_at(monkeypatch, op, when)
    started = time.perf_counter()
    with pytest.raises(TransportError, match=f"shard worker {VICTIM}"):
        Engine().run(
            SPECS[protocol], WORKLOAD, Deployment.sharded(2, parallel=True)
        )
    assert time.perf_counter() - started < 10.0
    assert fired, f"the run never posted {op!r} to worker {VICTIM}"
    assert multiprocessing.active_children() == []


# ----------------------------------------------------------------------
# Desynchronization: the worker's own traceback comes back
# ----------------------------------------------------------------------
def _rtp_server():
    trace = WORKLOAD.materialize()
    return trace, TransportShardedServer(trace, SPECS["rtp"].build(), 2)


def test_dispatch_of_a_foreign_position_surfaces_the_worker_traceback():
    trace, server = _rtp_server()
    # The first record's owner is the only worker that may dispatch it.
    owner = int(trace.stream_ids[0] >= server.ranges[0][1])
    with server:
        server.initialize(0.0)
        with pytest.raises(TransportError) as failure:
            server._rpc(1 - owner, ("dispatch", 0))
    message = str(failure.value)
    assert f"shard worker {1 - owner} failed" in message
    assert "Traceback (most recent call last)" in message
    assert "asked to dispatch position 0" in message
    assert multiprocessing.active_children() == []


def test_an_unknown_op_surfaces_the_worker_traceback():
    _, server = _rtp_server()
    with server:
        with pytest.raises(TransportError) as failure:
            server._rpc(VICTIM, ("advance_time", 1.0))
    message = str(failure.value)
    assert f"shard worker {VICTIM} failed" in message
    assert "Traceback (most recent call last)" in message
    assert "unknown request 'advance_time'" in message
    assert multiprocessing.active_children() == []
