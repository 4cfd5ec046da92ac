"""A small deterministic discrete-event simulation kernel.

The kernel provides simulated time, one-shot events, generator-based
processes, and shared-resource primitives.  All higher layers of the
reproduction (disks, schedulers, NFS) are built on these pieces.

The scheduler is one binary-heap event queue with a FIFO tie-break among
equal timestamps (see :mod:`repro.sim.core` for the determinism
contract).
"""

from .core import Simulator
from .errors import Interrupt, ProcessError, SchedulingError, SimulationError
from .events import AllOf, AnyOf, Event, EventQueue, Timeout
from .process import Process
from .rand import RandomStreams, derive_seed
from .resources import RateLimiter, Resource, Store

__all__ = [
    "Simulator",
    "Event",
    "EventQueue",
    "Timeout",
    "AnyOf",
    "AllOf",
    "Process",
    "Resource",
    "Store",
    "RateLimiter",
    "RandomStreams",
    "derive_seed",
    "SimulationError",
    "SchedulingError",
    "ProcessError",
    "Interrupt",
]
