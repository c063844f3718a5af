"""Unit tests for the server's control plane and message dispatch."""

from repro.network.accounting import MessageLedger, Phase
from repro.network.channel import Channel
from repro.network.messages import MessageKind
from repro.protocols.base import FilterProtocol
from repro.server.server import Server
from repro.streams.filters import FALSE_POSITIVE_FILTER
from repro.streams.source import StreamSource


class RecordingProtocol(FilterProtocol):
    """Test double: records callbacks, optionally acts during them."""

    name = "recording"

    def __init__(self, on_init=None, on_upd=None):
        self.initialized = 0
        self.updates = []
        self._on_init = on_init
        self._on_upd = on_upd

    def initialize(self, server):
        self.initialized += 1
        if self._on_init:
            self._on_init(server)

    def on_update(self, server, stream_id, value, time):
        self.updates.append((stream_id, value, time))
        if self._on_upd:
            self._on_upd(server, stream_id, value, time)

    @property
    def answer(self):
        return frozenset()


def make_system(n_sources=3, protocol=None):
    ledger = MessageLedger()
    channel = Channel(ledger)
    sources = [
        StreamSource(i, float(10 * i), channel) for i in range(n_sources)
    ]
    protocol = protocol or RecordingProtocol()
    server = Server(channel, protocol)
    return server, protocol, sources, ledger


def test_initialize_invokes_protocol_once():
    server, protocol, _, _ = make_system()
    server.initialize()
    assert protocol.initialized == 1


def test_probe_returns_value_and_costs_two_messages():
    server, _, sources, ledger = make_system()
    sources[2].value = 77.0
    assert server.probe(2) == 77.0
    assert ledger.count(MessageKind.PROBE_REQUEST) == 1
    assert ledger.count(MessageKind.PROBE_REPLY) == 1


def test_probe_all_returns_every_value():
    server, _, sources, ledger = make_system()
    values = server.probe_all()
    assert values.tolist() == [0.0, 10.0, 20.0]
    assert ledger.count(MessageKind.PROBE_REQUEST) == 3


def test_probe_all_subset():
    server, _, _, _ = make_system()
    assert server.probe_all([0, 2]).tolist() == [0.0, 20.0]


def test_deploy_installs_constraint():
    server, _, sources, ledger = make_system()
    server.deploy(1, 5.0, 15.0)
    assert sources[1].constraint.lower == 5.0
    assert sources[1].constraint.upper == 15.0
    assert ledger.count(MessageKind.CONSTRAINT) == 1


def test_broadcast_costs_n_messages():
    server, _, _, ledger = make_system(n_sources=5)
    server.broadcast(FALSE_POSITIVE_FILTER)
    assert ledger.count(MessageKind.CONSTRAINT) == 5


def test_update_dispatches_to_protocol():
    server, protocol, sources, _ = make_system()
    sources[0].apply_value(99.0, time=4.0)  # no filter: reports
    assert protocol.updates == [(0, 99.0, 4.0)]
    assert server.now == 4.0


def test_self_correction_during_deploy_is_deferred():
    """An update triggered by a stale-belief deploy must not re-enter the
    protocol while it is still handling the current step."""
    depth = {"now": 0, "max": 0}

    def on_upd(server, stream_id, value, time):
        depth["now"] += 1
        depth["max"] = max(depth["max"], depth["now"])
        if stream_id == 0:
            # Wrong belief about source 1 (value 10 is outside [100, 200])
            # -> source 1 self-corrects with an update immediately.
            server.deploy(1, 100.0, 200.0, assumed_inside=True)
        depth["now"] -= 1

    server, protocol, sources, _ = make_system(
        protocol=RecordingProtocol(on_upd=on_upd)
    )
    sources[0].apply_value(50.0, time=1.0)
    assert [u[0] for u in protocol.updates] == [0, 1]
    assert depth["max"] == 1  # never nested


def test_update_arriving_mid_drain_is_queued_not_reentered():
    """Regression: an update triggered *while* the pending queue is
    draining must join the queue, not re-enter the protocol.

    Stream 0's update deploys a stale-belief constraint at stream 1
    (self-correction #1, deferred).  Draining that update deploys a
    stale-belief constraint at stream 2 — its self-correction arrives
    mid-drain and must be serialized after it, never nested."""
    depth = {"now": 0, "max": 0}

    def on_upd(server, stream_id, value, time):
        depth["now"] += 1
        depth["max"] = max(depth["max"], depth["now"])
        if stream_id == 0:
            # value 10 is outside [100, 200]: belief 'inside' is stale.
            server.deploy(1, 100.0, 200.0, assumed_inside=True)
        elif stream_id == 1:
            # Triggered during _drain_pending: another stale deploy.
            server.deploy(2, 100.0, 200.0, assumed_inside=True)
        depth["now"] -= 1

    server, protocol, sources, _ = make_system(
        protocol=RecordingProtocol(on_upd=on_upd)
    )
    sources[0].apply_value(50.0, time=1.0)
    assert [u[0] for u in protocol.updates] == [0, 1, 2]
    assert depth["max"] == 1  # the drain never nested a handler


def test_self_correction_during_initialize_is_deferred():
    def on_init(server):
        server.deploy(0, 100.0, 200.0, assumed_inside=True)

    server, protocol, _, _ = make_system(
        protocol=RecordingProtocol(on_init=on_init)
    )
    server.initialize()
    assert [u[0] for u in protocol.updates] == [0]


def test_probes_during_update_are_not_misrouted():
    """Probe replies arriving mid-update go to the probe buffer, not
    the protocol."""

    def on_upd(server, stream_id, value, time):
        if stream_id == 0:
            assert server.probe(2) == 20.0

    server, protocol, sources, _ = make_system(
        protocol=RecordingProtocol(on_upd=on_upd)
    )
    sources[0].apply_value(5.0, time=1.0)
    assert [u[0] for u in protocol.updates] == [0]


def test_stream_ids_and_count():
    server, _, _, _ = make_system(n_sources=4)
    assert server.stream_ids == [0, 1, 2, 3]
    assert server.n_streams == 4


def test_phase_accounting_split():
    ledger = MessageLedger()
    channel = Channel(ledger)
    sources = [StreamSource(i, 0.0, channel) for i in range(2)]

    class ProbingProtocol(RecordingProtocol):
        def initialize(self, server):
            server.probe_all()

    server = Server(channel, ProbingProtocol())
    server.initialize()
    ledger.phase = Phase.MAINTENANCE
    sources[0].apply_value(1.0, 1.0)
    assert ledger.initialization_total == 4  # 2 probes x 2 messages
    assert ledger.maintenance_total == 1
