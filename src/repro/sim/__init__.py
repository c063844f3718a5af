"""Discrete-event simulation kernel.

This subpackage replaces CSIM 19, the commercial discrete-event simulator
the paper used for its evaluation (Section 6).  It provides:

* :class:`~repro.sim.engine.SimulationEngine` — a virtual-clock event loop
  driven by a binary heap, with deterministic FIFO tie-breaking;
* :class:`~repro.sim.events.Event` / :class:`~repro.sim.events.EventQueue`
  — the scheduling primitives;
* :mod:`repro.sim.rng` — named, independently-seeded random streams so that
  workload realizations are reproducible and protocols can be compared on
  identical inputs.
"""

from repro.sim.engine import SimulationEngine
from repro.sim.events import Event, EventQueue
from repro.sim.rng import RandomStreams

__all__ = [
    "SimulationEngine",
    "Event",
    "EventQueue",
    "RandomStreams",
]
