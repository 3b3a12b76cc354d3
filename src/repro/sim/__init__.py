"""Discrete-event simulation kernel.

This subpackage is the substrate that replaces the paper's MATLAB
simulation environment.  It provides a small but complete discrete-event
engine in the style of SimPy:

* :class:`~repro.sim.core.Environment` -- the event loop and simulation
  clock.
* :class:`~repro.sim.events.Event`, :class:`~repro.sim.events.Timeout`,
  :class:`~repro.sim.events.AllOf`, :class:`~repro.sim.events.AnyOf` --
  schedulable occurrences.
* :class:`~repro.sim.process.Process` -- generator-based coroutines that
  ``yield`` events to wait on them.
* :class:`~repro.sim.rng.RandomStreams` -- named, reproducible random
  substreams derived from a single root seed.

The kernel is deterministic: two runs with the same seed and the same
process structure produce identical event orderings (ties in time are
broken FIFO by insertion order).
"""

from repro.sim.core import Environment, SimulationError
from repro.sim.events import AllOf, AnyOf, Event, Interrupt, Timeout
from repro.sim.process import Process
from repro.sim.resources import Request, Resource
from repro.sim.rng import RandomStreams

__all__ = [
    "AllOf",
    "Request",
    "Resource",
    "AnyOf",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "RandomStreams",
    "SimulationError",
    "Timeout",
]
