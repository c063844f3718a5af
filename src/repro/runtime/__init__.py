"""The shared runtime kernel behind all four stacks.

One source core (:class:`FilteredSource` + a :class:`MembershipStrategy`;
the scalar stack's is columnar, ``repro.streams.source``),
one assembly/replay core (:class:`ExecutionSession`), and one deferred
delivery discipline (:class:`DeferredDeliveryMixin`) — the scalar,
spatial, value-window and multi-query stacks are thin specializations of
these three pieces.
"""

from repro.runtime.dispatch import DeferredDeliveryMixin
from repro.runtime.membership import (
    REPORT,
    MembershipStrategy,
    RecenteringWindowMembership,
    RegionMembership,
    SlottedMembership,
)
from repro.runtime.replay import REPLAY_MODES
from repro.runtime.session import ExecutionSession
from repro.runtime.source import ChannelFilteredSource, FilteredSource

__all__ = [
    "REPORT",
    "REPLAY_MODES",
    "ChannelFilteredSource",
    "DeferredDeliveryMixin",
    "ExecutionSession",
    "FilteredSource",
    "MembershipStrategy",
    "RecenteringWindowMembership",
    "RegionMembership",
    "SlottedMembership",
]
