"""The simulation engine: a virtual clock over an event heap.

The paper's evaluation (Section 6) runs each protocol inside CSIM 19.  The
only kernel facilities those experiments require are (1) a virtual clock,
(2) the ability to schedule callbacks at future virtual times, and (3) a
bounded run.  :class:`SimulationEngine` provides exactly that, with
deterministic FIFO ordering for simultaneous events so that two runs with
the same seed produce identical message counts.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable

from repro.sim.events import Event, EventQueue, SimulationError


class SimulationEngine:
    """A deterministic discrete-event simulation loop.

    Example
    -------
    >>> engine = SimulationEngine()
    >>> fired = []
    >>> _ = engine.schedule_at(5.0, lambda: fired.append(engine.now))
    >>> engine.run()
    >>> fired
    [5.0]
    """

    def __init__(self) -> None:
        self._queue = EventQueue()
        #: Current virtual time: a plain attribute, read on every
        #: message of a latency-modeled run; only the engine moves it.
        self.now = 0.0
        self._running = False

    @property
    def pending(self) -> int:
        """Number of live events still scheduled."""
        return len(self._queue)

    def reserve(self) -> int:
        """Reserve the next event sequence number (see :meth:`schedule_at`)."""
        queue = self._queue
        seq = queue._next_seq
        queue._next_seq = seq + 1
        return seq

    def schedule_at(
        self,
        time: float,
        action: Callable[[], None],
        label: str = "",
        seq: int | None = None,
    ) -> Event:
        """Schedule *action* at absolute virtual time *time* — FIFO among
        same-instant events at a *seq* :meth:`reserve` returned, else
        after every number handed out so far.

        Raises
        ------
        SimulationError
            If *time* lies in the virtual past.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before current time t={self.now}"
            )
        return self._queue.push(time, action, label, seq)

    def reschedule(self, event: Event, time: float, seq: int) -> Event:
        """Put *event*, which has fired, back at ``(time, seq)`` — what
        :meth:`schedule_at` does, without allocating a new one."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before current time t={self.now}"
            )
        event.time, event.seq = time, seq
        heappush(self._queue._heap, (time, seq, event))
        return event

    def run(self, until: float | None = None) -> None:
        """Fire events in time order.

        Parameters
        ----------
        until:
            If given, stop once the next event would fire strictly after
            this time; the clock is then advanced to *until*.  If omitted,
            run until the queue drains.
        """
        if self._running:
            raise SimulationError("run() called re-entrantly")
        self._running = True
        try:
            while True:
                next_time = self._queue.peek_time()
                if next_time is None:
                    break
                if until is not None and next_time > until:
                    break
                event = self._queue.pop()
                self.now = event.time
                event.action()
            if until is not None and until > self.now:
                self.now = until
        finally:
            self._running = False

    def advance(self, time: float) -> None:
        """Move the clock to *time* the way an event of its own, scheduled
        now, would: every event already scheduled at or before *time*
        fires first, in ``(time, seq)`` order, and one that those
        schedule at *time* itself waits behind the caller.  A replayed
        record's step: one comparison with the heap head when nothing
        is due."""
        heap = self._queue._heap
        if heap and heap[0][0] <= time:
            slot = self.reserve()  # the caller's place among them
            while heap:
                at, seq, event = heap[0]
                if at > time or (at == time and seq > slot):
                    break
                heappop(heap)
                if not event.cancelled:
                    self.now = at
                    event.action()
        if time > self.now:
            self.now = time

    def step(self) -> bool:
        """Fire a single event; return ``False`` if none was pending."""
        if not self._queue:
            return False
        event = self._queue.pop()
        self.now = event.time
        event.action()
        return True

    def reset(self) -> None:
        """Clear all pending events and rewind the clock to zero."""
        self._queue.clear()
        self.now = 0.0
