"""The central stream processor (Figure 3).

The :class:`~repro.server.sharded.ShardedServer` couples the *query
processing unit* and the *constraint assignment unit*: it receives source
messages from its shards' channels, hands updates to the installed
protocol, and exposes the control-plane operations (probe, deploy,
broadcast) protocols use to resolve constraints.  The single topology's
:class:`~repro.server.server.Server` is its one-shard instance.
"""

from repro.server.server import Server
from repro.server.sharded import ShardedServer, ShardServer

__all__ = ["Server", "ShardServer", "ShardedServer"]
