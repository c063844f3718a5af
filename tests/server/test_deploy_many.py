"""``deploy_many`` against the ordered ``deploy`` loop (DESIGN.md §12).

The columnar control plane must be unobservable: a batch installed as
one columnar operation leaves the ledger, the constraint columns, every
source's filter state and the self-correction delivery order exactly as
the per-message loop leaves them.  The grid below runs one scripted
protocol both ways over {single, sharded(2), sharded(2, parallel)} x
{fresh, all-stale, mixed beliefs} x {idle, mid-batched-replay}; the
single-server per-message run is the reference for all of them.  Under
a latency model a batch is one columnar send too, and a second grid
holds it to the per-message loop delivery for delivery.  The cases the
bulk path declines — a channel whose gate declines it
(``control_forcing``), a batch naming a stream twice, a host outside a
guarded step — must stay per-message, down to the delay-RNG draw
sequence.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from repro.api import Deployment, Engine
from repro.network.latency import (
    ExponentialLatency,
    FixedLatency,
    LatencyModel,
    Sampler,
    UniformLatency,
)
from repro.protocols.base import FilterProtocol
from repro.queries.range_query import RangeQuery
from repro.runtime.membership import (
    BELIEF_INSIDE,
    BELIEF_NONE,
    BELIEF_OUTSIDE,
)
from repro.runtime.session import ExecutionSession
from repro.server.server import Server
from repro.server.sharded import ShardedServer
from repro.server.transport import TransportShardedServer
from repro.state.pools import SilencerPools
from repro.streams.control import deploy_columns
from repro.streams.filters import FilterConstraint
from repro.streams.trace import StreamTrace
from replay_forcing import run_forced
from control_forcing import record_deliveries, run_per_message

N = 12
FIRST = FilterConstraint(35.0, 75.0)
SECOND = FilterConstraint(25.0, 65.0)
#: Quiescent under FIRST (staged by the batched replay, never
#: dispatched), then stream 4 leaves FIRST — the update that triggers
#: the redeploy.
QUIET = [(1.0, 0, 5.0), (2.0, 5, 60.0), (3.0, 6, 72.0), (4.0, 9, 80.0)]
TRIGGER = (6.0, 4, 30.0)
TAIL = [(7.0, 10, 101.0)]


def _trace() -> StreamTrace:
    records = QUIET + [TRIGGER] + TAIL
    return StreamTrace(
        initial_values=10.0 * np.arange(N),
        times=np.array([r[0] for r in records]),
        stream_ids=np.array([r[1] for r in records]),
        values=np.array([r[2] for r in records]),
        horizon=10.0,
        metadata={"workload": "deploy-many"},
    )


def _second_deploy(actual: np.ndarray, beliefs: str):
    """The redeployment under test: SECOND everywhere but two silencers,
    with beliefs chosen against the sources' *actual* values — as
    ``deploy_many`` arguments ``(ids, bound, belief, silenced)``."""
    silenced = SilencerPools()
    silenced.reset([1], [2])
    lower = np.full(N, SECOND.lower)
    upper = np.full(N, SECOND.upper)
    lower[1], upper[1] = -math.inf, math.inf
    lower[2], upper[2] = math.inf, math.inf
    inside = (lower <= actual) & (actual <= upper)
    stale = np.where(inside, BELIEF_OUTSIDE, BELIEF_INSIDE).astype(np.int8)
    right = np.where(inside, BELIEF_INSIDE, BELIEF_OUTSIDE).astype(np.int8)
    if beliefs == "fresh":
        belief = None
    elif beliefs == "all-stale":
        belief = stale
    else:
        belief = np.full(N, BELIEF_NONE, dtype=np.int8)
        belief[1::3] = stale[1::3]
        belief[2::3] = right[2::3]
    # Descending ids: batch order, not id order, must drive delivery.
    return np.arange(N)[::-1], SECOND, (
        None if belief is None else belief[::-1]
    ), silenced


class Scripted(FilterProtocol):
    """Probe, deploy FIRST, then deploy SECOND once — at the end of
    initialization (*idle*) or on the trigger update (mid-replay) —
    through ``deploy_many`` or the ordered ``deploy`` loop."""

    name = "scripted"

    def __init__(self, many: bool, idle: bool, second, before_second=None):
        self.many = many
        self.idle = idle
        self.second = second
        self.before_second = before_second
        self.fired = False
        self.deliveries: list[tuple] = []

    def _deploy(self, server, ids, bound, belief, silenced=None) -> None:
        if self.many:
            server.deploy_many(ids, bound, belief, silenced)
            return
        # The reference: the lowering written out per message.
        if ids is None:
            ids = server.stream_ids
        fp = set(silenced.fp) if silenced else ()
        fn = set(silenced.fn) if silenced else ()
        codes = [BELIEF_NONE] * len(ids) if belief is None else belief.tolist()
        for stream_id, code in zip(map(int, ids), codes):
            lower, upper = bound.lower, bound.upper
            if stream_id in fp:
                lower, upper = -math.inf, math.inf
            elif stream_id in fn:
                lower, upper = math.inf, math.inf
            server.deploy(
                stream_id,
                lower,
                upper,
                None if code == BELIEF_NONE else bool(code),
            )

    def _fire(self, server) -> None:
        self.fired = True
        if self.before_second is not None:
            self.before_second(server)
        self._deploy(server, *self.second)

    def initialize(self, server) -> None:
        server.probe_all()
        self._deploy(server, server.stream_ids, FIRST, None)
        if self.idle:
            self._fire(server)

    def on_update(self, server, stream_id, value, time) -> None:
        self.deliveries.append((stream_id, value, time))
        if not self.fired and stream_id == TRIGGER[1]:
            self._fire(server)

    @property
    def answer(self) -> frozenset:
        return frozenset()


@pytest.fixture
def deploy_calls(monkeypatch):
    """Counts per-message ``deploy`` calls on the in-process hosts."""
    calls = []
    for host in (Server, ShardedServer):
        original = host.deploy

        def counted(self, *args, _original=original, **kwargs):
            calls.append(args[0])
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(host, "deploy", counted)
    return calls


def _run(
    topology: str, many: bool, idle: bool, beliefs: str, second=_second_deploy
) -> dict:
    trace = _trace()
    actual = trace.initial_values.copy()
    if not idle:
        for _, stream_id, value in QUIET + [TRIGGER]:
            actual[stream_id] = value
    checks = []
    protocol = Scripted(many, idle, second(actual, beliefs))
    if topology == "parallel":

        def transported():
            server = TransportShardedServer(trace, protocol, 2)
            with server:
                server.initialize(0.0)
                server.replay(horizon=trace.horizon)
            return server

        server = run_forced("batch", transported)
        state = server.state
        return {
            "ledger": server.snapshot(),
            "deliveries": protocol.deliveries,
            "bounds": (state.lower.tolist(), state.upper.tolist()),
            "scannable": state.scannable.tolist(),
        }
    if topology == "single":
        session = ExecutionSession.for_streams(trace, protocol)
    else:
        session = ExecutionSession.for_streams_sharded(trace, protocol, 2)
    state = session.host.state
    if not idle:
        # The redeploy must land on staged replay values — a columnar
        # population's value plane is the staging vector, so the source
        # already holds its record's 60.0.
        protocol.before_second = lambda server: checks.append(
            session.sources[5].value
        )
    session.initialize(0.0)
    session.replay_trace(trace, mode="batch")
    assert checks == ([] if idle else [60.0])
    return {
        "ledger": session.snapshot(),
        "deliveries": protocol.deliveries,
        "bounds": (state.lower.tolist(), state.upper.tolist()),
        "scannable": state.scannable.tolist(),
        "inside": state.inside.tolist(),
        "sources": [
            (s.constraint, s.reported_inside, s.value) for s in session.sources
        ],
        "replay": session.last_replay_stats,
    }


@pytest.fixture(scope="module")
def reference():
    """Single server, per-message loop: computed once per scenario."""
    cache: dict = {}

    def get(idle: bool, beliefs: str) -> dict:
        key = (idle, beliefs)
        if key not in cache:
            cache[key] = _run("single", False, idle, beliefs)
        return cache[key]

    return get


@pytest.mark.parametrize("idle", [True, False], ids=["idle", "mid-replay"])
@pytest.mark.parametrize("beliefs", ["fresh", "all-stale", "mixed"])
@pytest.mark.parametrize("topology", ["single", "sharded", "parallel"])
def test_deploy_many_equals_the_ordered_deploy_loop(
    topology, beliefs, idle, reference, deploy_calls
):
    expected = reference(idle, beliefs)
    del deploy_calls[:]
    bulk = _run(topology, True, idle, beliefs)
    # The in-process hosts took the columnar path: not one deploy call.
    assert deploy_calls == []
    loop = _run(topology, False, idle, beliefs)
    assert bulk == loop
    for key, value in bulk.items():
        if key != "replay":  # per-worker stats differ across topologies
            assert value == expected[key], key
    if beliefs != "fresh":
        # Self-corrections carry the redeploy's time and arrive in batch
        # (descending id) order, right behind the update that fired it.
        fired_at = 0.0 if idle else TRIGGER[0]
        at_fire = [d[0] for d in bulk["deliveries"] if d[2] == fired_at]
        corrected = at_fire if idle else at_fire[1:]
        assert corrected == sorted(corrected, reverse=True) and corrected


#: Broadcast bounds: one with sources exactly on both ends (values 30
#: and 70 at the start, stream 4's trigger value 30 mid-replay), and a
#: silencer, which never self-corrects whatever the belief.
BROADCASTS = {
    "on-bound": FilterConstraint(30.0, 70.0),
    "silencing": FilterConstraint(math.inf, math.inf),
}


def _broadcast(bound):
    """The redeploy as a broadcast of *bound* — ``deploy_many(None,
    ...)``, every stream ascending — with beliefs chosen against the
    sources' actual values as in :func:`_second_deploy`."""

    def second(actual: np.ndarray, beliefs: str):
        inside = (bound.lower <= actual) & (actual <= bound.upper)
        stale = np.where(inside, BELIEF_OUTSIDE, BELIEF_INSIDE).astype(np.int8)
        right = np.where(inside, BELIEF_INSIDE, BELIEF_OUTSIDE).astype(np.int8)
        belief = None
        if beliefs == "all-stale":
            belief = stale
        elif beliefs == "mixed":
            belief = np.full(N, BELIEF_NONE, dtype=np.int8)
            belief[1::3] = stale[1::3]
            belief[2::3] = right[2::3]
        return None, bound, belief, None

    return second


@pytest.fixture(scope="module")
def broadcast_reference():
    """Single server, per-message loop, per broadcast scenario."""
    cache: dict = {}

    def get(idle: bool, beliefs: str, bound: str) -> dict:
        key = (idle, beliefs, bound)
        if key not in cache:
            second = _broadcast(BROADCASTS[bound])
            cache[key] = _run("single", False, idle, beliefs, second)
        return cache[key]

    return get


@pytest.mark.parametrize("bound", list(BROADCASTS))
@pytest.mark.parametrize("idle", [True, False], ids=["idle", "mid-replay"])
@pytest.mark.parametrize("beliefs", ["fresh", "all-stale", "mixed"])
@pytest.mark.parametrize("topology", ["single", "sharded", "parallel"])
def test_a_broadcast_equals_the_ordered_deploy_loop(
    topology, beliefs, idle, bound, broadcast_reference, deploy_calls
):
    """``stream_ids=None``: the whole population ascending, one bound —
    written as plane slices with the bound compared as a scalar."""
    expected = broadcast_reference(idle, beliefs, bound)
    del deploy_calls[:]
    second = _broadcast(BROADCASTS[bound])
    bulk = _run(topology, True, idle, beliefs, second)
    assert deploy_calls == []
    assert bulk == _run(topology, False, idle, beliefs, second)
    for key, value in bulk.items():
        if key != "replay":
            assert value == expected[key], key
    fired_at = 0.0 if idle else TRIGGER[0]
    at_fire = [d[0] for d in bulk["deliveries"] if d[2] == fired_at]
    corrected = at_fire if idle else at_fire[1:]
    # Self-corrections arrive in batch order, here ascending ids; a
    # silencer and fresh knowledge send none.
    assert corrected == sorted(corrected)
    assert bool(corrected) == (beliefs != "fresh" and bound != "silencing")


# ----------------------------------------------------------------------
# What the bulk path declines stays per-message
# ----------------------------------------------------------------------
def _latency_run(many: bool) -> dict:
    trace = _trace()
    protocol = Scripted(many, False, _second_deploy(trace.initial_values, "mixed"))
    session = ExecutionSession.for_streams(
        trace, protocol, latency=UniformLatency(0.1, 3.0, seed=5)
    )
    log = []
    record_deliveries(
        session.channel,
        lambda m: log.append((m.kind, m.stream_id, session.engine.now)),
    )
    session.initialize(0.0)
    session.replay_trace(trace, mode="event")
    return {
        "ledger": session.snapshot(),
        "deliveries": protocol.deliveries,
        "log": log,
        "delivered": session.channel.deferred_delivered_count,
    }


def test_latency_channel_keeps_per_message_sends_and_delay_draws(deploy_calls):
    bulk = run_per_message(lambda: _latency_run(True))
    # FIRST and SECOND, one deploy call per stream each.
    assert len(deploy_calls) == 2 * N
    assert bulk == _latency_run(False)
    assert bulk["delivered"] > 0


# ----------------------------------------------------------------------
# Under a latency model, a batch is one columnar send
# ----------------------------------------------------------------------
MODELS = {
    "fixed-0": FixedLatency(0),
    "fixed-0.5": FixedLatency(0.5),  # inline installs, late corrections
    "fixed-both-0.5": FixedLatency.symmetric(0.5),  # one delivery instant
    "uniform": UniformLatency(0.1, 3.0),
    "exponential": ExponentialLatency(1.0, 0.0),
}


class Believed(Scripted):
    """:class:`Scripted`, answering with the streams its host believes
    inside — an answer that moves with every delivery — and noting the
    virtual time of each delivery when given a *clock*."""

    clock = None

    def initialize(self, server) -> None:
        self._state = server.state
        super().initialize(server)

    def on_update(self, server, stream_id, value, time) -> None:
        if self.clock is not None:
            self.deliveries.append(("at", self.clock()))
        super().on_update(server, stream_id, value, time)

    @property
    def answer(self) -> frozenset:
        state = self._state
        return frozenset(np.nonzero(state.inside & state.scannable)[0].tolist())


def _session(trace, protocol, topology: str, latency):
    if topology == "single":
        return ExecutionSession.for_streams(trace, protocol, latency=latency)
    return ExecutionSession.for_streams_sharded(
        trace, protocol, 2, latency=latency
    )


def _observed(session, protocol) -> dict:
    """What a batch and its per-message loop must agree on."""
    return {
        "ledger": session.snapshot(),
        "deliveries": list(protocol.deliveries),
        "deferred": [
            c.deferred_delivered_count for c in session.latency_channels
        ],
        "sources": [
            (s.constraint, s.reported_inside, s.value) for s in session.sources
        ],
        "bounds": (
            session.host.state.lower.tolist(),
            session.host.state.upper.tolist(),
        ),
        "inside": session.host.state.inside.tolist(),
    }


def _in_flight(channel) -> list:
    """Streams with a message in flight, ascending: a held entry's flow
    is ``2 * stream id + is_uplink``."""
    return sorted({entry[2] >> 1 for entry in channel._in_flight})


def _model_run(model, topology: str, beliefs: str, idle: bool, many: bool):
    trace = _trace()
    second = _second_deploy(trace.initial_values, beliefs)
    protocol = Believed(many, idle, second)
    session = _session(trace, protocol, topology, model)
    protocol.clock = lambda: session.engine.now

    def now() -> list:
        # Each source's install lands at delivery, into the table columns
        # its filter planes are: read while rows fly, they hold the
        # filters installed so far.
        state = session.host.state
        return [
            [_in_flight(c) for c in session.latency_channels],
            state.lower.tolist(),
            state.upper.tolist(),
            state.inside.tolist(),
        ]

    at_record = []
    session.initialize(0.0)
    at_record.append(now())
    session.replay_trace(
        trace,
        mode="event",
        after_apply=lambda time: at_record.append((time, now())),
    )
    observed = _observed(session, protocol)
    observed["at_record"] = at_record
    deployment = (
        Deployment.single(check_every=1, latency=model)
        if topology == "single"
        else Deployment.sharded(2, check_every=1, latency=model)
    )
    report = Engine().run_protocol(
        trace,
        Believed(many, idle, second),
        RangeQuery(FIRST.lower, FIRST.upper),
        None,
        deployment,
    )
    observed["checked_ledger"] = report.ledger
    observed["violations"] = [
        (v.time, v.reason, v.classification) for v in report.checker.violations
    ]
    return observed


@pytest.mark.parametrize("idle", [True, False], ids=["idle", "mid-replay"])
@pytest.mark.parametrize("beliefs", ["fresh", "mixed"])
@pytest.mark.parametrize("topology", ["single", "sharded"])
@pytest.mark.parametrize("model", list(MODELS))
def test_latency_batch_equals_the_per_message_loop(
    model, topology, beliefs, idle, deploy_calls
):
    """Same ledger, deliveries, deferred-delivery counts, in-flight
    streams after every record and checker verdicts as the ordered
    ``deploy`` loop.  ``idle`` sends SECOND right behind FIRST, so under
    a positive downlink draw its rows clamp behind in-flight flow-mates."""
    bulk = _model_run(MODELS[model], topology, beliefs, idle, True)
    assert deploy_calls == []
    loop = _model_run(MODELS[model], topology, beliefs, idle, False)
    assert len(deploy_calls) == 2 * 2 * N  # FIRST and SECOND, both runs
    assert bulk == loop
    assert bulk["violations"]


@dataclass(frozen=True)
class ScriptedLatency(LatencyModel):
    """Delays from one script per direction, then zeros — the tie and
    floor cases no distribution hits on purpose."""

    uplink: tuple = ()
    downlink: tuple = ()

    def make_sampler(self, channel: int = 0) -> Sampler:
        def direction(script):
            draws = iter(script)

            def draw(size=None):
                if size is None:
                    return next(draws, 0.0)
                return np.array([next(draws, 0.0) for _ in range(size)])

            return draw

        return Sampler(direction(self.uplink), direction(self.downlink))


@pytest.mark.parametrize("drained", [True, False], ids=["drained", "in-flight"])
def test_zero_draws_behind_flow_mates(drained, deploy_calls):
    """FIRST flies for 2.0; SECOND draws zeros.  Behind in-flight
    flow-mates, or behind their floors after a forced drain with the
    clock at 0, no SECOND row may install inline: each joins the heap
    at its flow's floor — in both forms."""

    def run(many: bool) -> dict:
        trace = _trace()
        protocol = Scripted(many, False, None)
        protocol.fired = True  # SECOND is sent by hand below
        session = _session(
            trace, protocol, "single", ScriptedLatency(downlink=(2.0,) * N)
        )
        session.initialize(0.0)
        channel, host = session.channel, session.host
        if drained:
            assert channel.drain_in_flight() == N
        ids, bound, belief, silenced = _second_deploy(
            trace.initial_values, "mixed"
        )
        host._guarded_call(protocol._deploy, host, ids, bound, belief, silenced)
        held = (_in_flight(channel), channel._in_flight[0][0])
        session.engine.run()
        observed = _observed(session, protocol)
        observed["held"] = held
        return observed

    result = run(True)
    assert deploy_calls == []
    assert result == run(False)
    assert result["held"] == (list(range(N)), 2.0)
    assert result["deferred"] == [2 * N]


def test_an_inline_rows_correction_is_reserved_at_its_row():
    """Row 0 installs inline and its self-correction flies 0.5; row 1
    flies 0.5 too.  The correction was sent first, so it is delivered
    first at t = 0.5 — before row 1's install, which its handler must
    not yet see."""

    class Observer(Scripted):
        def on_update(self, server, stream_id, value, time) -> None:
            self.deliveries.append((stream_id, server.state.inside.tolist()))

    def run(many: bool) -> list:
        trace = _trace()
        protocol = Observer(many, False, None)
        session = _session(
            trace,
            protocol,
            "single",
            ScriptedLatency(uplink=(0.5,), downlink=(0.0,) * N + (0.0, 0.5)),
        )
        session.initialize(0.0)
        host = session.host
        # Values 0 and 10: both inside [0, 15]; stream 0 is believed out.
        belief = np.array([BELIEF_OUTSIDE, BELIEF_NONE], dtype=np.int8)
        host._guarded_call(
            protocol._deploy, host, np.arange(2), FilterConstraint(0.0, 15.0), belief
        )
        assert session.channel.in_flight_count == 2
        session.engine.run()
        return protocol.deliveries

    deliveries = run(True)
    assert deliveries == run(False)
    assert [(stream_id, inside[:2]) for stream_id, inside in deliveries] == [
        (0, [True, False])
    ]


def test_inverted_bound_raises_before_anything_is_charged():
    trace = _trace()
    session = _session(
        trace, Scripted(True, False, None), "single", UniformLatency(0.1, 3.0)
    )
    session.initialize(0.0)
    host, channel = session.host, session.channel
    before = (
        _observed(session, host.protocol),
        channel.in_flight_count,
        session.engine.pending,
    )
    ids = np.arange(N)
    lower, upper = np.full(N, 0.0), np.full(N, 50.0)
    lower[7] = 60.0
    belief = np.full(N, BELIEF_NONE, dtype=np.int8)
    with pytest.raises(ValueError, match="invalid filter interval"):
        _guarded_columns(host, True, ids, lower, upper, belief)
    after = (
        _observed(session, host.protocol),
        channel.in_flight_count,
        session.engine.pending,
    )
    assert after == before


def _guarded_columns(server, many: bool, ids, lower, upper, belief) -> None:
    """Deploy raw per-row columns inside a guarded step: through the
    hosts' ``deploy_columns`` layer, or as the ordered ``deploy`` loop."""
    if many:
        server._guarded_call(
            deploy_columns, server, server.channel, server.state, True,
            (ids, (lower, upper), belief),
        )
        return

    def loop():
        for row in zip(ids.tolist(), lower.tolist(), upper.tolist(), belief.tolist()):
            server.deploy(*row[:3], bool(row[3]))

    server._guarded_call(loop)


@pytest.mark.parametrize("many", [True, False], ids=["many", "loop"])
def test_duplicate_ids_stay_per_message(many, deploy_calls):
    trace = _trace()
    session = ExecutionSession.for_streams(trace, Scripted(many, False, None))
    server, state = session.host, session.host.state
    ids = np.array([3, 5, 3])
    lower, upper = np.array([0.0, 0.0, 40.0]), np.array([35.0, 35.0, 90.0])
    belief = np.array([BELIEF_OUTSIDE, BELIEF_INSIDE, BELIEF_INSIDE], np.int8)
    _guarded_columns(server, many, ids, lower, upper, belief)
    assert deploy_calls == [3, 5, 3]
    # Values 30 and 50: all three beliefs are stale; the last install wins.
    assert [d[0] for d in server.protocol.deliveries] == [3, 5, 3]
    assert session.sources[3].constraint.lower == 40.0
    assert (state.lower[3], state.upper[3], state.inside[3]) == (40.0, 90.0, False)
    assert session.snapshot().initialization_total == 6


@pytest.mark.parametrize("sharded", [False, True], ids=["single", "sharded"])
def test_unguarded_host_keeps_inline_self_corrections(sharded, deploy_calls):
    """Outside a protocol step a self-correction is delivered *between*
    two deploys; the handler must keep seeing that intermediate state."""

    class Observer(Scripted):
        def on_update(self, server, stream_id, value, time) -> None:
            self.deliveries.append(
                (stream_id, tuple(server.state.upper.tolist()))
            )

    def run(many: bool) -> list:
        trace = _trace()
        protocol = Observer(many, False, None)
        if sharded:
            session = ExecutionSession.for_streams_sharded(trace, protocol, 2)
        else:
            session = ExecutionSession.for_streams(trace, protocol)
        stale = np.full(N, BELIEF_INSIDE, dtype=np.int8)
        protocol._deploy(
            session.host, np.arange(N), FilterConstraint(200.0, 300.0), stale
        )
        return protocol.deliveries

    bulk = run(True)
    assert len(deploy_calls) == N
    assert bulk == run(False)
    # Stream 0's correction saw stream 1 still at its default bound.
    assert bulk[0] == (0, (300.0,) + (math.inf,) * (N - 1))


def test_interleaved_worker_runs_are_served_one_rpc_at_a_time():
    """A batch alternating between the two workers is thousands of
    same-worker runs.  Each is its own request/reply round-trip: posting
    them all before collecting any reply blocks coordinator and worker
    on each other's full pipe (~64 KiB per direction)."""
    n = 3000
    ids = np.empty(n, dtype=np.int64)
    ids[0::2] = np.arange(n // 2)
    ids[1::2] = np.arange(n // 2, n)

    class Interleaved(Scripted):
        def initialize(self, server) -> None:
            self.probed = server.probe_all(ids.tolist())
            server.deploy_many(ids, FIRST)

    trace = StreamTrace(
        initial_values=np.arange(n, dtype=np.float64),
        times=np.array([1.0]),
        stream_ids=np.array([0]),
        values=np.array([0.5]),
        horizon=2.0,
        metadata={"workload": "deploy-many-interleaved"},
    )
    protocol = Interleaved(True, False, None)
    server = TransportShardedServer(trace, protocol, 2)
    with server:
        server.initialize(0.0)
        assert protocol.probed.tolist() == ids.astype(float).tolist()
        assert server.state.lower.tolist() == [FIRST.lower] * n
        assert server.snapshot().initialization_total == 3 * n
