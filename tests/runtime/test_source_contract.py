"""The FilteredSource strategy contract: kernel ports == legacy sources.

Each kernel-ported source class must produce *identical message ledgers*
to the seed repo's hand-rolled implementation on shared traces.  The
reference implementations below are faithful copies of the pre-kernel
semantics; the suite drives both sides through the same randomized
script of value changes, probes and deployments and compares every
message that crosses the channel.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.accounting import MessageLedger
from repro.network.channel import Channel
from repro.network.latency import UniformLatency, make_channel
from repro.network.messages import (
    ConstraintMessage,
    MessageKind,
    ProbeReplyMessage,
    ProbeRequestMessage,
    UpdateMessage,
)
from repro.runtime.membership import BELIEF_NONE
from repro.sim.engine import SimulationEngine
from repro.spatial.geometry import BallRegion, BoxRegion, as_point
from repro.spatial.messages import RegionConstraintMessage
from repro.spatial.source import SpatialStreamSource
from repro.state.table import StreamStateTable
from repro.streams.control import install_constraints, probe_sources
from repro.streams.filters import FilterConstraint
from repro.streams.source import ScalarPopulation, StreamSource
from repro.valuebased.source import WindowFilterSource


# ----------------------------------------------------------------------
# Reference (pre-kernel) implementations
# ----------------------------------------------------------------------
class LegacyStreamSource:
    """Verbatim seed semantics of the scalar stream source."""

    def __init__(self, stream_id, initial_value, channel):
        self.stream_id = stream_id
        self.value = float(initial_value)
        self.channel = channel
        self.constraint = None
        self._reported_inside = False
        channel.bind_source(stream_id, self._handle_message)

    def apply(self, value, time):
        self.value = float(value)
        if self.constraint is None:
            self._report(time)
            return
        inside = self.constraint.contains(self.value)
        if inside != self._reported_inside:
            self._reported_inside = inside
            self._report(time)

    def _report(self, time):
        self.channel.send_to_server(
            UpdateMessage(stream_id=self.stream_id, time=time, value=self.value)
        )

    def _handle_message(self, message):
        if message.kind is MessageKind.PROBE_REQUEST:
            if self.constraint is not None:
                self._reported_inside = self.constraint.contains(self.value)
            from repro.network.messages import ProbeReplyMessage

            self.channel.send_to_server(
                ProbeReplyMessage(
                    stream_id=self.stream_id,
                    time=message.time,
                    value=self.value,
                )
            )
            return
        assert message.kind is MessageKind.CONSTRAINT
        self.constraint = FilterConstraint(message.lower, message.upper)
        if self.constraint.is_silencing:
            self._reported_inside = self.constraint.contains(self.value)
            return
        assumed = message.assumed_inside
        actual = self.constraint.contains(self.value)
        if assumed is None:
            self._reported_inside = actual
            return
        self._reported_inside = bool(assumed)
        if actual != self._reported_inside:
            self._reported_inside = actual
            self._report(message.time)


class LegacyWindowSource:
    """Verbatim seed semantics of the value-window source."""

    def __init__(self, stream_id, initial_value, channel, width):
        self.stream_id = stream_id
        self.value = float(initial_value)
        self.width = float(width)
        self.channel = channel
        self._center = float(initial_value)
        channel.bind_source(stream_id, self._handle_message)

    def apply(self, value, time):
        self.value = float(value)
        if abs(self.value - self._center) > self.width / 2.0:
            self._center = self.value
            self.channel.send_to_server(
                UpdateMessage(
                    stream_id=self.stream_id, time=time, value=self.value
                )
            )

    def _handle_message(self, message):
        assert message.kind is MessageKind.PROBE_REQUEST
        self._center = self.value
        from repro.network.messages import ProbeReplyMessage

        self.channel.send_to_server(
            ProbeReplyMessage(
                stream_id=self.stream_id, time=message.time, value=self.value
            )
        )


class LegacySpatialSource:
    """Verbatim seed semantics of the spatial source."""

    def __init__(self, stream_id, initial_point, channel):
        self.stream_id = stream_id
        self.point = as_point(initial_point)
        self.channel = channel
        self.region = None
        self._reported_inside = False
        channel.bind_source(stream_id, self._handle_message)

    def apply(self, point, time):
        self.point = as_point(point)
        if self.region is None:
            self._report(time)
            return
        inside = self.region.contains(self.point)
        if inside != self._reported_inside:
            self._reported_inside = inside
            self._report(time)

    def _report(self, time):
        self.channel.send_to_server(
            UpdateMessage(
                stream_id=self.stream_id, time=time, value=self.point.copy()
            )
        )

    def _handle_message(self, message):
        if message.kind is MessageKind.PROBE_REQUEST:
            if self.region is not None:
                self._reported_inside = self.region.contains(self.point)
            self.channel.send_to_server(
                ProbeReplyMessage(
                    stream_id=self.stream_id,
                    time=message.time,
                    value=self.point.copy(),
                )
            )
            return
        assert message.kind is MessageKind.CONSTRAINT
        self.region = message.region
        if self.region.is_silencing:
            self._reported_inside = self.region.contains(self.point)
            return
        actual = self.region.contains(self.point)
        if message.assumed_inside is None:
            self._reported_inside = actual
            return
        self._reported_inside = bool(message.assumed_inside)
        if actual != self._reported_inside:
            self._reported_inside = actual
            self._report(message.time)


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def _sink_system(make_source):
    ledger = MessageLedger()
    channel = Channel(ledger)
    received = []
    channel.bind_server(received.append)
    source = make_source(channel)
    return channel, ledger, source, received


def _messages_digest(received):
    """A comparable rendering of every server-bound message."""
    digest = []
    for message in received:
        payload = message.value
        if isinstance(payload, np.ndarray):
            payload = tuple(payload.tolist())
        digest.append((message.kind, message.stream_id, message.time, payload))
    return digest


SCALAR_SEEDS = [0, 1, 2, 3]


@pytest.mark.parametrize("seed", SCALAR_SEEDS)
def test_stream_source_matches_legacy(seed):
    rng = np.random.default_rng(seed)
    script = []
    for step in range(400):
        roll = rng.random()
        if roll < 0.7:
            script.append(("value", float(rng.normal(500.0, 120.0))))
        elif roll < 0.85:
            script.append(("probe",))
        else:
            lower = float(rng.uniform(300.0, 500.0))
            assumed = rng.choice([None, True, False])
            script.append(
                ("deploy", lower, lower + float(rng.uniform(10.0, 300.0)),
                 None if assumed is None else bool(assumed))
            )

    def drive(source_cls):
        channel, ledger, source, received = _sink_system(
            lambda ch: source_cls(0, 500.0, ch)
        )
        for t, action in enumerate(script, start=1):
            if action[0] == "value":
                source.apply(action[1], float(t))
            elif action[0] == "probe":
                channel.send_to_source(ProbeRequestMessage(0, float(t)))
            else:
                channel.send_to_source(
                    ConstraintMessage(
                        0, float(t), lower=action[1], upper=action[2],
                        assumed_inside=action[3],
                    )
                )
        return ledger.snapshot(), _messages_digest(received)

    legacy = drive(LegacyStreamSource)
    kernel = drive(StreamSource)
    assert legacy == kernel


# ----------------------------------------------------------------------
# The columnar population against n legacy objects (DESIGN.md §18)
# ----------------------------------------------------------------------
#: Values and endpoints from one small pool, so a value sits exactly on
#: a bound — and a batch names the same id twice — often.
_POOL = [380.0, 400.0, 450.0, 500.0, 550.0, 600.0, 620.0]
_BOUNDS = st.one_of(
    st.tuples(st.sampled_from(_POOL), st.sampled_from(_POOL)).map(sorted).map(tuple),
    st.sampled_from([(-math.inf, math.inf), (math.inf, math.inf)]),
)
_BELIEFS = st.sampled_from([None, True, False])
LATENCIES = {"sync": None, "zero": 0.0, "uniform": UniformLatency(0.3, 2.7, seed=5)}


def _scripts(n):
    rows = st.integers(0, n - 1)
    constraint = st.tuples(rows, _BOUNDS, _BELIEFS)
    return st.lists(
        st.one_of(
            st.tuples(st.just("apply"), rows, st.sampled_from(_POOL)),
            st.tuples(st.just("probe"), rows),
            st.tuples(st.just("constraint"), constraint),
            st.tuples(st.just("install"), st.lists(constraint, max_size=6)),
            st.tuples(st.just("probes"), st.lists(rows, max_size=6)),
        ),
        max_size=40,
    )


class _System:
    """Ledger, engine, channel of one delivery discipline, a sink server
    logging every delivered uplink, and *n* sources built by *make*."""

    def __init__(self, n, latency, make):
        self.ledger = MessageLedger()
        self.engine = SimulationEngine()
        self.channel = make_channel(self.ledger, self.engine, LATENCIES[latency])
        self.log: list = []
        self.channel.bind_server(
            lambda m: self.log.append((m.kind, m.stream_id, m.time, m.value))
        )
        self.sources = make(np.full(n, 500.0), self.channel)

    # The per-message forms; the population side overrides the batches.
    def constraint(self, time, row, bounds, assumed):
        self.channel.send_to_source(ConstraintMessage(row, time, *bounds, assumed))

    def probe(self, time, row):
        self.channel.send_to_source(ProbeRequestMessage(row, time))

    def install(self, time, batch):
        for row, bounds, assumed in batch:
            self.constraint(time, row, bounds, assumed)

    def probes(self, time, rows):
        for row in rows:
            self.probe(time, row)

    def run(self, script):
        """Op ``k`` happens at virtual time ``k``, after every delivery
        due by then; returns ``(uplink log, ledger)``."""
        for time, (op, *args) in enumerate(script, start=1):
            time = float(time)
            self.engine.run(until=time)
            if op == "apply":
                self.sources[args[0]].apply(args[1], time)
            elif op == "probe":
                self.probe(time, args[0])
            elif op == "constraint":
                self.constraint(time, *args[0])
            elif op == "install":
                self.install(time, args[0])
            else:
                self.probes(time, args[0])
        self.engine.run(until=float(len(script) + 10))
        assert not getattr(self.channel, "in_flight_count", 0)
        return self.log, self.ledger.snapshot()


class _Columnar(_System):
    """The population side: batches go through the bulk kernels, and
    per-message only when those decline — what ``deploy_columns`` /
    ``probe_columns`` do for a host."""

    def __init__(self, n, latency):
        super().__init__(
            n, latency, lambda v, ch: ScalarPopulation(v, [ch], [(0, len(v))])
        )
        self.table = StreamStateTable(n)
        self.sources.bind_state(self.table)
        self.install_batches = self.probe_batches = 0

    def install(self, time, batch):
        ids = np.array([row for row, _, _ in batch], dtype=np.int64)
        lower = np.array([bounds[0] for _, bounds, _ in batch], dtype=np.float64)
        upper = np.array([bounds[1] for _, bounds, _ in batch], dtype=np.float64)
        belief = np.array(
            [BELIEF_NONE if a is None else int(a) for _, _, a in batch], np.int8
        )
        if install_constraints(
            self.channel, self.table, ids, (lower, upper), belief, time
        ):
            self.install_batches += 1
        else:
            super().install(time, batch)

    def probes(self, time, rows):
        values = probe_sources(
            self.channel, self.table, np.array(rows, dtype=np.int64)
        )
        if values is None:
            super().probes(time, rows)
            return
        # The columnar probe hands the replies back instead of
        # delivering them: log what the reply messages would have said.
        self.probe_batches += 1
        self.log.extend(
            (MessageKind.PROBE_REPLY, row, time, value)
            for row, value in zip(rows, values.tolist())
        )


def _legacy_sources(values, channel):
    return [LegacyStreamSource(i, v, channel) for i, v in enumerate(values)]


@pytest.mark.parametrize("latency", sorted(LATENCIES))
@pytest.mark.parametrize("n", [1, 7, 64])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_scalar_population_matches_n_legacy_sources(n, latency, data):
    """One ``ScalarPopulation`` of *n* rows == *n* pre-kernel objects:
    the same interleaving of value changes, probes and constraints —
    per message and through ``install_constraints`` / ``probe_sources``
    — delivers the same messages at the same times with the same
    ``float`` payloads, charges the same ledger and leaves the same
    ``(value, constraint, believed side)`` in every row."""
    script = data.draw(_scripts(n))
    columnar = _Columnar(n, latency)
    legacy = _System(n, latency, _legacy_sources)
    log, ledger = columnar.run(script)
    assert (log, ledger) == legacy.run(script)
    assert all(type(payload) is float for *_, payload in log)
    # A legacy source's believed side without a filter is never read.
    assert [
        (s.value, s.constraint, s.reported_inside) for s in columnar.sources
    ] == [
        (s.value, s.constraint, s.constraint is not None and s._reported_inside)
        for s in legacy.sources
    ]
    # Write-through: the table's constraint plane is the population's.
    population, table = columnar.sources, columnar.table
    assert np.array_equal(table.lower, population.lower)
    assert np.array_equal(table.upper, population.upper)
    assert np.array_equal(table.inside, population.inside)
    assert np.array_equal(table.scannable, population.filtered)
    if latency != "sync":
        # Each constraint draws its own delay: never columnar under a
        # model.  A probe never queues: every batch of distinct ids is
        # (a one-row population binds its id alone: no batch ever is).
        assert columnar.install_batches == 0
        assert columnar.probe_batches == sum(
            op == "probes" and 0 < len(args[0]) == len(set(args[0]))
            for op, *args in script
        ) * (n > 1)


@pytest.mark.parametrize("seed", SCALAR_SEEDS)
@pytest.mark.parametrize("width", [0.0, 25.0, 400.0])
def test_window_source_matches_legacy(seed, width):
    rng = np.random.default_rng(seed)
    script = []
    for step in range(400):
        if rng.random() < 0.9:
            script.append(("value", float(rng.normal(500.0, 60.0))))
        else:
            script.append(("probe",))

    def drive(source_cls):
        channel, ledger, source, received = _sink_system(
            lambda ch: source_cls(0, 500.0, ch, width)
        )
        for t, action in enumerate(script, start=1):
            if action[0] == "value":
                source.apply(action[1], float(t))
            else:
                channel.send_to_source(ProbeRequestMessage(0, float(t)))
        return ledger.snapshot(), _messages_digest(received)

    legacy = drive(
        lambda sid, v, ch, w=width: LegacyWindowSource(sid, v, ch, w)
    )
    kernel = drive(
        lambda sid, v, ch, w=width: WindowFilterSource(sid, v, ch, width=w)
    )
    assert legacy == kernel


@pytest.mark.parametrize("seed", SCALAR_SEEDS)
def test_spatial_source_matches_legacy(seed):
    rng = np.random.default_rng(seed)
    script = []
    for step in range(300):
        roll = rng.random()
        if roll < 0.7:
            script.append(("point", rng.uniform(0.0, 100.0, size=2).tolist()))
        elif roll < 0.85:
            script.append(("probe",))
        else:
            if rng.random() < 0.5:
                center = rng.uniform(20.0, 80.0, size=2)
                region = BallRegion(center, float(rng.uniform(5.0, 40.0)))
            else:
                lows = rng.uniform(0.0, 50.0, size=2)
                region = BoxRegion(lows, lows + rng.uniform(5.0, 50.0, size=2))
            assumed = rng.choice([None, True, False])
            script.append(
                ("deploy", region, None if assumed is None else bool(assumed))
            )

    def drive(source_cls):
        channel, ledger, source, received = _sink_system(
            lambda ch: source_cls(0, [50.0, 50.0], ch)
        )
        for t, action in enumerate(script, start=1):
            if action[0] == "point":
                source.apply(action[1], float(t))
            elif action[0] == "probe":
                channel.send_to_source(ProbeRequestMessage(0, float(t)))
            else:
                channel.send_to_source(
                    RegionConstraintMessage(
                        0, float(t), region=action[1], assumed_inside=action[2]
                    )
                )
        return ledger.snapshot(), _messages_digest(received)

    legacy = drive(LegacySpatialSource)
    kernel = drive(SpatialStreamSource)
    assert legacy == kernel


@pytest.mark.parametrize("seed", SCALAR_SEEDS)
def test_multiquery_source_matches_legacy(seed):
    """The slotted port must reproduce the seed's shared-update stream."""
    from repro.multiquery.source import (
        QueryConstraintMessage,
        QueryProbeMessage,
        SharedUpdateMessage,
        SlotPopulation,
    )

    def kernel(stream_id, initial_value, channel, queries):
        """A population of one, viewed as its row."""
        ids = [(stream_id, stream_id + 1)]
        return SlotPopulation([initial_value], [channel], ids, queries)[0]

    class LegacyMultiQuerySource:
        def __init__(self, stream_id, initial_value, channel, queries):
            self.stream_id = stream_id
            self.value = float(initial_value)
            self.channel = channel
            self._constraints = {}
            self._reported = {}
            channel.bind_source(stream_id, self._handle)

        def _update(self, time, flipped):
            self.channel.send_to_server(
                SharedUpdateMessage(self.stream_id, time, self.value, flipped)
            )

        def apply(self, value, time):
            self.value = float(value)
            if not self._constraints:
                self._update(time, None)
                return
            flipped = []
            for query_id, constraint in self._constraints.items():
                if constraint.is_silencing:
                    continue
                inside = constraint.contains(self.value)
                if inside != self._reported[query_id]:
                    self._reported[query_id] = inside
                    flipped.append(query_id)
            if flipped:
                self._update(time, tuple(flipped))

        def _handle(self, message):
            query_id = message.query
            if message.kind is MessageKind.PROBE_REQUEST:
                constraint = self._constraints.get(query_id)
                if constraint is not None:
                    self._reported[query_id] = constraint.contains(self.value)
                self.channel.send_to_server(
                    ProbeReplyMessage(self.stream_id, message.time, self.value)
                )
                return
            constraint = FilterConstraint(message.lower, message.upper)
            self._constraints[query_id] = constraint
            if constraint.is_silencing:
                self._reported[query_id] = constraint.contains(self.value)
                return
            actual = constraint.contains(self.value)
            if message.assumed_inside is None:
                self._reported[query_id] = actual
                return
            self._reported[query_id] = bool(message.assumed_inside)
            if actual != self._reported[query_id]:
                self._reported[query_id] = actual
                self._update(message.time, (query_id,))

    rng = np.random.default_rng(seed)
    script = []
    for step in range(400):
        roll = rng.random()
        if roll < 0.6:
            script.append(("value", float(rng.normal(500.0, 120.0))))
        elif roll < 0.75:
            script.append(("probe", str(rng.choice(["a", "b"]))))
        else:
            lower = float(rng.uniform(300.0, 500.0))
            assumed = rng.choice([None, True, False])
            script.append(
                ("install", str(rng.choice(["a", "b"])), lower,
                 lower + float(rng.uniform(10.0, 300.0)),
                 None if assumed is None else bool(assumed))
            )

    def drive(source_cls):
        channel, ledger, source, received = _sink_system(
            lambda ch: source_cls(0, 500.0, ch, ("a", "b"))
        )
        for t, action in enumerate(script, start=1):
            if action[0] == "value":
                source.apply(action[1], float(t))
            elif action[0] == "probe":
                channel.send_to_source(QueryProbeMessage(0, float(t), query=action[1]))
            else:
                channel.send_to_source(
                    QueryConstraintMessage(
                        0, float(t), action[2], action[3], action[4],
                        query=action[1],
                    )
                )
        tags = [getattr(message, "queries", None) for message in received]
        return ledger.snapshot(), _messages_digest(received), tags

    assert drive(LegacyMultiQuerySource) == drive(kernel)
