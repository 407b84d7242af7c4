"""Discrete-event simulation kernel.

A small, deterministic, SimPy-flavoured kernel: an :class:`Environment`
drives a binary-heap event queue; :class:`Process` objects are generator
coroutines that ``yield`` events (timeouts, other processes, any-of and
all-of conditions) and are resumed when those events fire.

The kernel is the substrate for every simulated component in ``repro``:
network flows, GridFTP servers, tape robots, NWS sensors, and the request
manager are all processes scheduled here.

Determinism: events firing at the same simulated time are ordered by
(priority, insertion sequence), and all randomness is drawn from named
seeded streams (:class:`RandomStreams`), so a given scenario+seed always
replays identically.
"""

from repro.sim.events import (
    AllOf,
    AnyOf,
    Event,
    EventPriority,
    Interrupt,
    Timeout,
)
from repro.sim.core import Environment, SimulationError, StopSimulation
from repro.sim.process import Process
from repro.sim.rng import RandomStreams

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "EventPriority",
    "Interrupt",
    "Process",
    "RandomStreams",
    "SimulationError",
    "StopSimulation",
    "Timeout",
]
