"""The central server: the single topology's host (Figure 3).

Protocols never talk to the channel directly; they receive
``on_update(server, ...)`` callbacks and use the server's control-plane
methods (``probe``, ``probe_all``, ``deploy``, ``deploy_many``,
``broadcast``), which keeps message accounting in one place.

A :class:`Server` is the one-shard :class:`~repro.server.sharded.
ShardedServer`: one channel, one shard range ``[0, n)``.  The control
plane, the deferred-delivery re-entrancy discipline and the columnar
batch paths (DESIGN.md §12) are the coordinator's, so the single and
sharded topologies leave byte-identical ledgers by construction
(DESIGN.md §13).  What a stream value *is* is read from the host's
:class:`~repro.runtime.vocabulary.Vocabulary`;
:class:`repro.spatial.server.SpatialServer` is this class bound to the
spatial one.
"""

from __future__ import annotations

from repro.network.channel import Channel
from repro.protocols.base import FilterProtocol
from repro.server.sharded import ShardedServer
from repro.streams.vocabulary import SCALAR


class Server(ShardedServer):
    """Query-processing + constraint-assignment units of Figure 3."""

    stack = SCALAR.stack

    def __init__(
        self,
        channel: Channel,
        protocol: FilterProtocol,
        state_factory=None,
    ) -> None:
        self.channel = channel
        super().__init__(
            [channel], protocol, [(0, channel.n_sources)], state_factory
        )
