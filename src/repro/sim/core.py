"""The simulation core: clock, event loop, and process spawning.

The design follows the classic process-interaction style (as popularised
by SimPy): simulated activities are Python generators that ``yield``
events; the kernel resumes each generator when the event it waited on
fires.  The kernel is deliberately small — everything domain-specific
(disks, schedulers, NFS daemons) is layered on top.

The scheduler is a binary heap (:class:`~repro.sim.events.EventQueue`)
of ``(time, insertion-order, event)`` entries: events fire in time
order, and events that share a timestamp fire in the order they were
scheduled.  That tie-break makes every layer above — net, nfs, kernel,
disk, faults, replay, chaos, campaign — a pure function of its inputs,
which the golden determinism battery
(``tests/test_kernel_equivalence.py``) pins.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from ..obs import NULL_OBS, Observability
from .errors import SchedulingError, SimulationError
from .events import AllOf, AnyOf, Event, EventQueue, Timeout
from .process import Process


class Simulator:
    """A deterministic discrete-event simulator.

    Typical use::

        sim = Simulator()

        def worker(sim):
            yield sim.timeout(1.5)
            return "done"

        proc = sim.spawn(worker(sim))
        sim.run()
        assert sim.now == 1.5 and proc.value == "done"

    ``obs`` attaches an :class:`~repro.obs.Observability` (span tracer
    + metrics registry) that instrumented components reach via
    ``sim.obs``.  The default is the shared all-off null object, and by
    the no-perturbation invariant of :mod:`repro.obs` an instrumented
    run is bit-identical to an uninstrumented one.
    """

    def __init__(self, obs: Optional[Observability] = None):
        self.now: float = 0.0
        self._queue = EventQueue()
        #: The single scheduling entry point: every event, timeout and
        #: process bootstrap lands here.
        self._push = self._queue.push
        self._running = False
        self.obs = obs if obs is not None else NULL_OBS
        self.obs.bind(self)

    # ------------------------------------------------------------------
    # Event construction helpers
    # ------------------------------------------------------------------

    def event(self, name: Optional[str] = None) -> Event:
        """Create a pending one-shot event."""
        return Event(self, name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` simulated seconds from now."""
        return Timeout(self, delay, value)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def spawn(self, generator, name: Optional[str] = None) -> Process:
        """Start a new process from a generator; returns its Process."""
        return Process(self, generator, name=name)

    # ------------------------------------------------------------------
    # Scheduling and the main loop
    # ------------------------------------------------------------------

    def _schedule_event(self, event: Event, delay: float) -> None:
        if delay < 0:
            raise SchedulingError(f"cannot schedule {event!r} in the past")
        self._push(self.now + delay, event)

    def step(self) -> None:
        """Process exactly one event (advancing the clock to it)."""
        when, event = self._queue.pop()
        if when < self.now:
            raise SimulationError("event queue went backwards in time")
        self.now = when
        event._process()

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains or the clock reaches ``until``.

        Returns the final simulation time.  ``until`` is an absolute
        simulated timestamp, not a delta.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        try:
            queue = self._queue
            while len(queue):
                if until is not None and queue.peek_time() > until:
                    self.now = until
                    break
                self.step()
        finally:
            self._running = False
        if until is not None and self.now < until:
            self.now = until
        return self.now

    def run_until_complete(self, process: Process,
                           limit: Optional[float] = None) -> Any:
        """Run until ``process`` finishes; return its value.

        ``limit`` guards against runaway simulations: exceeding it raises
        :class:`SimulationError`.
        """
        queue = self._queue
        while not process.finished:
            if not len(queue):
                raise SimulationError(
                    f"deadlock: {process!r} cannot finish, queue empty")
            if limit is not None and queue.peek_time() > limit:
                raise SimulationError(
                    f"simulation exceeded time limit {limit}")
            self.step()
        if process.error is not None:
            raise process.error
        return process.value
