"""Unit tests for the spatial source and server plumbing."""

import numpy as np
import pytest

from repro.network.accounting import MessageLedger
from repro.network.channel import Channel
from repro.network.messages import MessageKind
from repro.protocols.base import FilterProtocol
from repro.spatial.geometry import ALL_SPACE, EMPTY_REGION, BoxRegion
from repro.spatial.messages import (
    PointProbeRequestMessage,
    RegionConstraintMessage,
)
from repro.spatial.server import SpatialServer
from repro.spatial.source import SpatialStreamSource

BOX = BoxRegion([0.0, 0.0], [10.0, 10.0])


@pytest.fixture
def wired():
    ledger = MessageLedger()
    channel = Channel(ledger)
    received = []
    channel.bind_server(received.append)
    sources = [
        SpatialStreamSource(i, [float(i), float(i)], channel)
        for i in range(3)
    ]
    return channel, ledger, sources, received


class TestSpatialSource:
    def test_no_filter_reports_every_move(self, wired):
        channel, ledger, sources, received = wired
        sources[0].apply_point([1.0, 1.0], 1.0)
        sources[0].apply_point([2.0, 2.0], 2.0)
        assert len(received) == 2

    def test_region_filter_suppresses_interior_moves(self, wired):
        channel, ledger, sources, received = wired
        channel.send_to_source(
            RegionConstraintMessage(0, 0.0, region=BOX, assumed_inside=True)
        )
        received.clear()
        sources[0].apply_point([3.0, 3.0], 1.0)
        sources[0].apply_point([9.0, 9.0], 2.0)
        assert received == []
        sources[0].apply_point([11.0, 9.0], 3.0)  # crosses a face
        assert len(received) == 1
        np.testing.assert_array_equal(received[0].point, [11.0, 9.0])

    def test_silencing_regions(self, wired):
        channel, ledger, sources, received = wired
        channel.send_to_source(
            RegionConstraintMessage(0, 0.0, region=ALL_SPACE)
        )
        channel.send_to_source(
            RegionConstraintMessage(1, 0.0, region=EMPTY_REGION)
        )
        received.clear()
        for source in sources[:2]:
            source.apply_point([1e6, -1e6], 1.0)
        assert received == []

    def test_stale_belief_self_corrects(self, wired):
        channel, ledger, sources, received = wired
        sources[2].point = np.array([50.0, 50.0])  # actually outside BOX
        channel.send_to_source(
            RegionConstraintMessage(2, 0.0, region=BOX, assumed_inside=True)
        )
        assert len(received) == 1
        assert received[0].kind is MessageKind.UPDATE

    def test_probe_refreshes_state(self, wired):
        channel, ledger, sources, received = wired
        channel.send_to_source(
            RegionConstraintMessage(0, 0.0, region=BOX, assumed_inside=True)
        )
        received.clear()
        channel.send_to_source(PointProbeRequestMessage(0, 1.0))
        assert received[0].kind is MessageKind.PROBE_REPLY
        np.testing.assert_array_equal(received[0].point, [0.0, 0.0])


class RecordingSpatialProtocol(FilterProtocol):
    name = "recording-2d"

    def __init__(self):
        self.updates = []

    def initialize(self, server):
        pass

    def on_update(self, server, stream_id, point, time):
        self.updates.append((stream_id, tuple(point), time))

    @property
    def answer(self):
        return frozenset()


class TestSpatialServer:
    def make(self, n=3):
        ledger = MessageLedger()
        channel = Channel(ledger)
        sources = [
            SpatialStreamSource(i, [float(10 * i), 0.0], channel)
            for i in range(n)
        ]
        protocol = RecordingSpatialProtocol()
        server = SpatialServer(channel, protocol)
        return server, protocol, sources, ledger

    def test_probe_round_trip(self):
        server, _, sources, ledger = self.make()
        point = server.probe(2)
        np.testing.assert_array_equal(point, [20.0, 0.0])
        assert ledger.count(MessageKind.PROBE_REQUEST) == 1
        assert ledger.count(MessageKind.PROBE_REPLY) == 1

    def test_probe_all(self):
        server, _, _, _ = self.make()
        values = server.probe_all()
        assert values.shape == (3, 2)

    def test_deploy_costs_one_message(self):
        server, _, sources, ledger = self.make()
        server.deploy(1, BOX)
        assert ledger.count(MessageKind.CONSTRAINT) == 1
        assert sources[1].region is BOX

    def test_updates_dispatch_to_protocol(self):
        server, protocol, sources, _ = self.make()
        sources[0].apply_point([5.0, 5.0], 3.0)
        assert protocol.updates == [(0, (5.0, 5.0), 3.0)]
        assert server.now == 3.0

    def test_self_correction_deferred(self):
        fired = []

        class DeployingProtocol(RecordingSpatialProtocol):
            def on_update(self, server, stream_id, point, time):
                fired.append(stream_id)
                if stream_id == 0:
                    # Wrong belief about source 1 -> immediate correction,
                    # which must be queued, not re-entrant.
                    server.deploy(1, BOX, assumed_inside=False)

        ledger = MessageLedger()
        channel = Channel(ledger)
        sources = [
            SpatialStreamSource(i, [1.0, 1.0], channel) for i in range(2)
        ]
        SpatialServer(channel, DeployingProtocol())
        sources[0].apply_point([2.0, 2.0], 1.0)
        assert fired == [0, 1]
