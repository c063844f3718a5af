"""The single topology's host is the one-shard coordinator.

``Server`` (and its spatial binding) is a ``ShardedServer`` over one
channel and the shard range ``[0, n)``; the control plane exists once.
On one shard ``rank_view`` skips the k-way merge and returns the
shard's own ``RankView``, which must read exactly like the merged view.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Workload
from repro.network.accounting import MessageLedger
from repro.network.channel import Channel
from repro.protocols.base import FilterProtocol
from repro.queries.knn import KnnQuery
from repro.runtime.session import ExecutionSession
from repro.server.server import Server
from repro.server.sharded import ShardedServer
from repro.spatial.server import SpatialServer
from repro.state.rank import RankView
from repro.state.sharding import ShardedRankView, StateShardView
from repro.streams.source import StreamSource

#: Every method the coordinator implements for a host; none may be
#: defined again on the single-topology classes.
CONTROL_PLANE = {
    "now",
    "stream_ids",
    "n_streams",
    "state",
    "rank_view",
    "initialize",
    "probe",
    "probe_all",
    "deploy",
    "deploy_many",
    "broadcast",
    "_handle_message",
    "_handle_delivery",
    "_receive_update",
}


class Idle(FilterProtocol):
    """Test double: a protocol that never acts."""

    name = "idle"

    def initialize(self, server):
        pass

    def on_update(self, server, stream_id, value, time):
        pass

    @property
    def answer(self):
        return frozenset()


@pytest.mark.parametrize("host", [Server, SpatialServer])
def test_single_topology_classes_define_no_control_plane(host):
    assert issubclass(host, ShardedServer)
    own = vars(host)
    assert not CONTROL_PLANE & own.keys()
    assert {name for name, attr in own.items() if callable(attr)} <= {"__init__"}


#: Few distinct values on both sides of q: plenty of key ties.
_REPORTS = st.lists(
    st.tuples(st.integers(0, 39), st.integers(-6, 6)), max_size=60
)


@given(
    n=st.integers(1, 40),
    before=_REPORTS,
    after=_REPORTS,
    count=st.integers(0, 45),
)
@settings(max_examples=150, deadline=None)
def test_one_shard_rank_view_reads_like_the_merged_view(n, before, after, count):
    channel = Channel(MessageLedger())
    for i in range(n):
        StreamSource(i, 0.0, channel)
    server = Server(channel, Idle())
    shard = server.shards[0].state
    distance = KnnQuery(500.0, 1).distance_array
    view = server.rank_view(distance)
    merged = ShardedRankView([shard], distance)
    assert type(view) is RankView

    # Reports land through the shard view, as deliveries and probe
    # replies do; the second batch arrives after both views have synced.
    for reports in (before, after):
        for row, step in reports:
            if row < n:
                shard.record_report(row, 500.0 + 10 * step, 1.0)
        np.testing.assert_array_equal(view.order_ids(), merged.order_ids())
        assert view.leaders(count) == merged.leaders(count)
        for row in np.flatnonzero(shard.known).tolist():
            assert view.key_of(row) == merged.key_of(row)


@pytest.mark.parametrize(
    "stack, workload",
    [
        ("streams", Workload.synthetic(n_streams=50, horizon=5.0, seed=3)),
        ("spatial", Workload.moving_objects(n_objects=40, horizon=5.0, seed=3)),
    ],
)
def test_a_single_session_host_is_a_one_shard_coordinator(stack, workload):
    trace = workload.materialize()
    session = ExecutionSession.assemble(stack, trace, Idle(), None)
    host = session.host
    assert type(host) is Server.speaking(stack)
    assert isinstance(host, ShardedServer) and host.n_shards == 1
    (shard,) = host.shards
    assert isinstance(shard.state, StateShardView)
    assert (shard.lo, shard.hi) == (0, trace.n_streams) == (0, host.n_streams)
    assert shard.state.parent is host.state
    assert shard.channel is host.channel is session.channel
