"""Message-cost accounting: the paper's performance metric.

Every message that crosses the source-server boundary is recorded here,
classified by :class:`~repro.network.messages.MessageKind` and by
:class:`Phase` (initialization vs. maintenance).  The figures in Section 6
plot *maintenance* messages only, so :meth:`MessageLedger.maintenance_total`
is the headline number; footnote 1 of the paper defines the no-filter
baseline's cost as its update messages, which falls out naturally.
"""

from __future__ import annotations

import enum
from collections import Counter as _Counter
from dataclasses import dataclass

from repro.network.messages import Message, MessageKind


class Phase(enum.Enum):
    """Protocol phase a message is charged to (hashed by identity, in
    C, like :class:`~repro.network.messages.MessageKind`: every charge
    keys by both)."""

    INITIALIZATION = "initialization"
    MAINTENANCE = "maintenance"

    __hash__ = object.__hash__


@dataclass(frozen=True)
class LedgerSnapshot:
    """Immutable view of a ledger, for results reporting."""

    initialization: dict[MessageKind, int]
    maintenance: dict[MessageKind, int]

    @property
    def initialization_total(self) -> int:
        return sum(self.initialization.values())

    @property
    def maintenance_total(self) -> int:
        return sum(self.maintenance.values())

    @property
    def total(self) -> int:
        return self.initialization_total + self.maintenance_total

    def maintenance_of(self, kind: MessageKind) -> int:
        return self.maintenance.get(kind, 0)


class MessageLedger:
    """Tallies messages by (phase, kind).

    Protocols flip :attr:`phase` when they enter/leave their initialization
    phase; re-initializations triggered *during* maintenance (e.g. RTP
    Case 2 Step 5, FT-RP bound recomputation) are charged to maintenance,
    matching the paper's accounting where only the one-off start-up cost is
    excluded from the figures.
    """

    def __init__(self) -> None:
        self._counts: dict[Phase, _Counter] = {
            Phase.INITIALIZATION: _Counter(),
            Phase.MAINTENANCE: _Counter(),
        }
        self.phase = Phase.INITIALIZATION

    def record(self, message: Message) -> None:
        """Charge one message of *message*'s kind to the current phase."""
        self._counts[self.phase][message.kind] += 1

    def record_kind(self, kind: MessageKind, count: int = 1) -> None:
        """Charge *count* messages of *kind* to the current phase."""
        if count < 0:
            raise ValueError("count must be non-negative")
        self._counts[self.phase][kind] += count

    def count(self, kind: MessageKind, phase: Phase | None = None) -> int:
        """Messages of *kind* in *phase* (both phases if ``None``)."""
        if phase is not None:
            return self._counts[phase][kind]
        return sum(self._counts[p][kind] for p in Phase)

    @property
    def maintenance_total(self) -> int:
        """The paper's headline metric: total maintenance messages."""
        return sum(self._counts[Phase.MAINTENANCE].values())

    @property
    def initialization_total(self) -> int:
        return sum(self._counts[Phase.INITIALIZATION].values())

    @property
    def total(self) -> int:
        return self.maintenance_total + self.initialization_total

    def snapshot(self) -> LedgerSnapshot:
        """Freeze the current tallies for reporting."""
        return LedgerSnapshot(
            initialization=dict(self._counts[Phase.INITIALIZATION]),
            maintenance=dict(self._counts[Phase.MAINTENANCE]),
        )

    def reset(self) -> None:
        for counter in self._counts.values():
            counter.clear()
        self.phase = Phase.INITIALIZATION
