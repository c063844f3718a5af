"""Event primitives for the discrete-event kernel.

An :class:`Event` couples a firing time with a zero-argument callback.
Events with equal firing times fire in the order they were scheduled
(FIFO tie-breaking via a monotonically increasing sequence number), which
keeps simulations fully deterministic.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable


class SimulationError(Exception):
    """Raised when the simulation kernel is used incorrectly."""


@dataclass(order=True, slots=True)
class Event:
    """A scheduled callback in virtual time.

    Attributes
    ----------
    time:
        Virtual firing time.
    seq:
        Monotonic sequence number used for FIFO tie-breaking; assigned by
        the :class:`EventQueue`.
    action:
        Zero-argument callable invoked when the event fires.
    label:
        Optional human-readable tag, useful in tests and debugging.
    cancelled:
        Lazily-deleted flag: cancelled events stay in the heap but are
        skipped when popped.
    """

    time: float
    seq: int
    action: Callable[[], None] = field(compare=False)
    label: str = field(default="", compare=False)
    cancelled: bool = field(default=False, compare=False)

    def cancel(self) -> None:
        """Mark this event so it is skipped when it reaches the heap top,
        and drop its action: left in the heap, it keeps nothing alive (a
        latency channel's last live event would hold the channel)."""
        self.cancelled = True
        self.action = None


class EventQueue:
    """A binary-heap priority queue of :class:`Event` objects.

    Entries are ``(time, seq, event)`` tuples, ordered in C (``seq`` is
    unique, so events are never compared).  Cancellation is lazy:
    :meth:`Event.cancel` flips a flag and the event is discarded when
    popped, so cancellation is O(1) and pops remain O(log n) amortized.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        self._next_seq = 0

    def __len__(self) -> int:
        return sum(1 for _, _, event in self._heap if not event.cancelled)

    def __bool__(self) -> bool:
        return self.peek_time() is not None

    def reserve(self) -> int:
        """Take the next sequence number without scheduling anything: a
        later :meth:`push` with ``seq=`` gives its event that place among
        same-instant events."""
        seq = self._next_seq
        self._next_seq = seq + 1
        return seq

    def push(
        self,
        time: float,
        action: Callable[[], None],
        label: str = "",
        seq: int | None = None,
    ) -> Event:
        """Schedule *action* at virtual time *time* and return the event
        (at a *seq* :meth:`reserve` returned, else the next one)."""
        if seq is None:
            seq = self.reserve()
        event = Event(time=time, seq=seq, action=action, label=label)
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def pop(self) -> Event:
        """Remove and return the earliest non-cancelled event.

        Raises
        ------
        SimulationError
            If the queue holds no live events.
        """
        while self._heap:
            event = heapq.heappop(self._heap)[2]
            if not event.cancelled:
                return event
        raise SimulationError("pop from an empty event queue")

    def peek_time(self) -> float | None:
        """Return the firing time of the earliest live event, or ``None``."""
        while self._heap and self._heap[0][2].cancelled:
            heapq.heappop(self._heap)
        if not self._heap:
            return None
        return self._heap[0][0]

    def clear(self) -> None:
        """Drop every pending event."""
        self._heap.clear()
