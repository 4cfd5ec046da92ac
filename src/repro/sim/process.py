"""Generator-based simulated processes.

A process is a Python generator that yields :class:`~repro.sim.events.Event`
objects (or other :class:`Process` instances, which are themselves events
— waiting on a process waits for its completion).  ``return value`` inside
the generator sets the process's result.

The resume/step trampoline here is the single hottest code path in the
kernel — every event a process waits on funnels through it — so it is
written flat: ``send``/``throw`` are bound once at spawn, the resume
callback is pre-bound, the bootstrap is a direct queue record instead of
a throwaway event, and the yielded event is subscribed to inline.  The
flattening is pure mechanics: the sequence of queue pushes (and
therefore the deterministic FIFO tie-break order) is exactly the one an
unflattened trampoline produces, which the golden determinism battery
pins.
"""

from __future__ import annotations

from typing import Any, Optional

from .errors import Interrupt, ProcessError
from .events import Event, PENDING, PROCESSED, TRIGGERED


class Process(Event):
    """A running simulated activity.

    A ``Process`` *is an* :class:`Event`: it fires when the generator
    finishes, with the generator's return value as the event value.  This
    lets processes wait on each other with a plain ``yield child``.  A
    child that dies with an exception propagates it: the parent's yield
    raises (catchable), mirroring :meth:`Event.fail`.
    """

    __slots__ = ("generator", "_waiting_on", "_send", "_throw",
                 "_resume_cb")

    def __init__(self, sim, generator, name: Optional[str] = None):
        if not hasattr(generator, "send"):
            raise ProcessError(
                f"Process needs a generator, got {type(generator).__name__} "
                "(did you forget to call the generator function?)")
        self.sim = sim
        self.name = name or getattr(generator, "__name__", "process")
        self.state = PENDING
        self.value = None
        self.error = None
        self.callbacks = None
        self.generator = generator
        self._send = generator.send
        self._throw = generator.throw
        self._waiting_on: Optional[Event] = None
        self._resume_cb = self._resume
        # Kick off on the next scheduler step at the current time: the
        # bootstrap consumes one queue slot, exactly as the old
        # bootstrap event did, so FIFO tie-break order is unchanged.
        sim._push(sim.now, _Bootstrap(self))

    # ------------------------------------------------------------------

    @property
    def finished(self) -> bool:
        return self.state != PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its wait point."""
        if self.state != PENDING:
            raise ProcessError(f"cannot interrupt finished {self!r}")
        target = self._waiting_on
        if target is not None and target.state != PROCESSED:
            # Detach from whatever we were waiting on.
            callbacks = target.callbacks
            if callbacks is not None:
                try:
                    callbacks.remove(self._resume_cb)
                except ValueError:
                    pass
        self._waiting_on = None
        self._step(Interrupt(cause), throw=True)

    # ------------------------------------------------------------------

    def _resume(self, event: Event) -> None:
        self._waiting_on = None
        error = event.error
        if error is not None:
            # The awaited event failed: the exception surfaces at the
            # process's yield point, where it may be caught.
            self._step(error, throw=True)
        else:
            self._step(event.value)

    def _step(self, value: Any, throw: bool = False) -> None:
        try:
            if throw:
                yielded = self._throw(value)
            else:
                yielded = self._send(value)
        except StopIteration as stop:
            # Completion is a plain succeed(), flattened.
            self.state = TRIGGERED
            self.value = stop.value
            sim = self.sim
            sim._push(sim.now, self)
            return
        except Interrupt as exc:
            # An uncaught interrupt terminates the process with an error.
            self.error = exc
            self.succeed(None)
            return
        except Exception as exc:  # propagate at run_until_complete()
            self.error = exc
            self.succeed(None)
            return
        if not isinstance(yielded, Event):
            self.error = ProcessError(
                f"{self!r} yielded {yielded!r}; processes must yield Events")
            self.succeed(None)
            return
        self._waiting_on = yielded
        # Inlined yielded.add_callback(self._resume): one line per wait
        # on the hottest path in the kernel.
        state = yielded.state
        if state == PROCESSED:
            self._resume(yielded)
        elif yielded.callbacks is None:
            yielded.callbacks = [self._resume_cb]
        else:
            yielded.callbacks.append(self._resume_cb)


class _Bootstrap:
    """Queue record payload that performs a process's first step.

    Replaces the old per-spawn bootstrap :class:`Event` (allocation plus
    callback list plus state machine) with the cheapest object exposing
    ``_process`` the scheduler loop can fire.
    """

    __slots__ = ("process",)

    def __init__(self, process: Process):
        self.process = process

    def _process(self) -> None:
        self.process._step(None)
