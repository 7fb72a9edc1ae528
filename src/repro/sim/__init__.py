"""Deterministic discrete-event simulation kernel.

Time is a float in microseconds.  See :mod:`repro.sim.engine` for the
event loop, :mod:`repro.sim.process` for generator-coroutine processes,
and :mod:`repro.sim.sync` for synchronisation primitives.
"""

from .engine import AllOf, AnyOf, SimEvent, SimulationError, Simulator, Timeout, Waitable
from .process import Process, ProcessFailure, spawn, spawn_batch
from .profile import KernelProfile
from .rng import RngRegistry
from .sync import Barrier, Channels, Mailbox, Semaphore
from .trace import Counters, PhaseTimer, TraceRecord, Tracer

__all__ = [
    "Simulator",
    "Waitable",
    "SimEvent",
    "Timeout",
    "AnyOf",
    "AllOf",
    "SimulationError",
    "Process",
    "ProcessFailure",
    "spawn",
    "spawn_batch",
    "KernelProfile",
    "Mailbox",
    "Channels",
    "Semaphore",
    "Barrier",
    "RngRegistry",
    "Counters",
    "PhaseTimer",
    "Tracer",
    "TraceRecord",
]
