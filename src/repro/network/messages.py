"""Typed messages exchanged between stream sources and the server.

Four message kinds cover every interaction in the paper's protocols:

* ``UPDATE`` — a source reports its current value after a filter violation
  (or on every change when no filter is installed);
* ``PROBE_REQUEST`` / ``PROBE_REPLY`` — the server explicitly requests a
  source's current value (RTP Step 4 / Case 3, FT-NRP ``Fix_Error``,
  initialization phases) and the source answers;
* ``CONSTRAINT`` — the server deploys a (new) filter constraint to a source;
  a broadcast of a bound ``R`` to all ``n`` sources therefore costs ``n``
  constraint messages.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import ClassVar


class MessageKind(enum.Enum):
    """Classification of a message for cost accounting.  Members hash
    by identity, in C — the ledger keys a counter by kind on every
    charge — as they already compare (they are singletons)."""

    UPDATE = "update"
    PROBE_REQUEST = "probe_request"
    PROBE_REPLY = "probe_reply"
    CONSTRAINT = "constraint"

    __hash__ = object.__hash__

    @property
    def is_uplink(self) -> bool:
        """True for source-to-server messages."""
        return self in (MessageKind.UPDATE, MessageKind.PROBE_REPLY)

    @property
    def is_probe(self) -> bool:
        """True for either half of the probe round-trip.

        Probes are the protocols' synchronous resolution RPC: requirement
        2 keeps resolution atomic, so even a latency-modeled channel
        delivers them within the sending simulation event (DESIGN.md §8).
        """
        return self in (MessageKind.PROBE_REQUEST, MessageKind.PROBE_REPLY)


@dataclass(frozen=True)
class Message:
    """Base class for all messages.

    Attributes
    ----------
    stream_id:
        Identifier of the source this message is from/to.
    time:
        Virtual time at which the message was sent.
    kind, is_uplink, is_probe:
        Class attributes, not fields: each message class sets ``kind``
        and inherits the other two from it (plain reads on the
        channel's per-message path).
    """

    stream_id: int
    time: float
    kind: ClassVar[MessageKind]
    is_uplink: ClassVar[bool]
    is_probe: ClassVar[bool]

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        kind = cls.__dict__.get("kind")
        if kind is not None:
            cls.is_uplink, cls.is_probe = kind.is_uplink, kind.is_probe


@dataclass(frozen=True)
class UpdateMessage(Message):
    """Source-to-server value report triggered by a filter violation.
    The value is a float, or an ``(d,)`` point array on the spatial
    stack (one message family for every dimension, DESIGN.md §15)."""

    value: float = 0.0

    kind = MessageKind.UPDATE


@dataclass(frozen=True)
class ProbeRequestMessage(Message):
    """Server-to-source request for the current value."""

    kind = MessageKind.PROBE_REQUEST


@dataclass(frozen=True)
class ProbeReplyMessage(Message):
    """Source-to-server reply to a probe, carrying the current value
    (a float or a point, as in :class:`UpdateMessage`)."""

    value: float = 0.0

    kind = MessageKind.PROBE_REPLY


@dataclass(frozen=True)
class ConstraintMessage(Message):
    """Server-to-source deployment of a filter constraint.

    ``lower``/``upper`` carry the interval; the degenerate false-positive
    filter is ``(-inf, +inf)`` and the false-negative filter ``(+inf, +inf)``.

    ``assumed_inside`` is the server's belief about which side of the bound
    the source currently sits on.  ``None`` means the server probed the
    source this round and its knowledge is fresh; a non-``None`` value asks
    the source to self-correct (report once) if the belief is stale.
    """

    lower: float = float("-inf")
    upper: float = float("inf")
    assumed_inside: bool | None = None

    kind = MessageKind.CONSTRAINT
