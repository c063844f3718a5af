"""The shared runtime kernel behind all four stacks.

One source core — a :class:`Population` of planes per stack, viewed one
row at a time as a :class:`FilteredSource` (``repro.runtime.source``,
DESIGN.md §18, §20) — one assembly/replay core
(:class:`ExecutionSession`), and one deferred delivery discipline
(:class:`DeferredDeliveryMixin`): the scalar, spatial, value-window and
multi-query stacks are thin specializations of these three pieces.
"""

from repro.runtime.dispatch import DeferredDeliveryMixin
from repro.runtime.replay import REPLAY_MODES
from repro.runtime.session import ExecutionSession
from repro.runtime.source import ChannelFilteredSource, FilteredSource, Population

__all__ = [
    "REPLAY_MODES",
    "ChannelFilteredSource",
    "DeferredDeliveryMixin",
    "ExecutionSession",
    "FilteredSource",
    "Population",
]
