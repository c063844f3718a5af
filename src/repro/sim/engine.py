"""The simulation engine: a virtual clock over an event heap.

The paper's evaluation (Section 6) runs each protocol inside CSIM 19.  The
only kernel facilities those experiments require are (1) a virtual clock,
(2) the ability to schedule callbacks at future virtual times, and (3) a
bounded run.  :class:`SimulationEngine` provides exactly that, with
deterministic FIFO ordering for simultaneous events so that two runs with
the same seed produce identical message counts.
"""

from __future__ import annotations

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
        self._now = 0.0
        self._running = False
        self._events_processed = 0

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events fired since construction (or :meth:`reset`)."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of live events still scheduled."""
        return len(self._queue)

    @property
    def next_event_time(self) -> float | None:
        """Firing time of the earliest live event, ``None`` when idle."""
        return self._queue.peek_time()

    def reserve(self) -> int:
        """Reserve the next event sequence number (see :meth:`schedule_at`)."""
        return self._queue.reserve()

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
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} before current time t={self._now}"
            )
        return self._queue.push(time, action, label, seq)

    def schedule_after(
        self, delay: float, action: Callable[[], None], label: str = ""
    ) -> Event:
        """Schedule *action* after a non-negative *delay* from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self._queue.push(self._now + delay, action, label)

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
                self._now = event.time
                self._events_processed += 1
                event.action()
            if until is not None and until > self._now:
                self._now = until
        finally:
            self._running = False

    def advance(self, time: float) -> None:
        """Move the clock forward to *time* — :meth:`run` ``(until=time)``
        for a caller that knows no event is due by then."""
        if time > self._now:
            self._now = time

    def step(self) -> bool:
        """Fire a single event; return ``False`` if none was pending."""
        if not self._queue:
            return False
        event = self._queue.pop()
        self._now = event.time
        self._events_processed += 1
        event.action()
        return True

    def reset(self) -> None:
        """Clear all pending events and rewind the clock to zero."""
        self._queue.clear()
        self._now = 0.0
        self._events_processed = 0
