"""Generator-based simulated processes.

A process is a Python generator that yields :class:`~repro.sim.events.Event`
objects (or other :class:`Process` instances, which are themselves events
— waiting on a process waits for its completion).  ``return value`` inside
the generator sets the process's result.

The resume trampoline here is the single hottest code path in the
kernel — every event a process waits on funnels through it — so it is
written flat.  One ``_resume(event)`` frame per wake reads the event's
``value``/``error`` and drives the generator; a yield of an event that
is already processed continues in the same loop.  ``send``/``throw``
are bound once at spawn, the resume callback is pre-bound, the
bootstrap is a direct queue record instead of a throwaway event, and
the yielded event is subscribed to inline.  None of this changes the
sequence of queue pushes (and therefore the FIFO tie-break order),
which the golden determinism battery pins.

Two pushes are saved on purpose (DESIGN.md §12): a process that
finishes with no subscriber is marked processed at once instead of
queueing a completion event that would run no callbacks, and a process
begun with :meth:`~repro.sim.core.Simulator.start` runs its first step
in the caller's frame instead of through a bootstrap entry.
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

    def __init__(self, sim, generator, name: Optional[str] = None,
                 inline: bool = False):
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
        bootstrap = _Bootstrap(self)
        if inline:
            # Simulator.start: the first step runs here, in the caller's
            # frame, and the queue is not touched.
            bootstrap._process()
        else:
            # Kick off on the next scheduler step at the current time.
            sim._push(sim.now, bootstrap)

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
        self._resume(_Interrupted(Interrupt(cause)))

    # ------------------------------------------------------------------

    def _resume(self, event) -> None:
        """Advance the generator past the wait ``event`` ended.

        ``event`` is anything with ``value`` and ``error``: the awaited
        event, the bootstrap record, or an interrupt record.  A yield of
        an already-processed event continues in this loop instead of a
        nested call, so one wake costs one frame however many ready
        events the generator walks through.
        """
        send = self._send
        while True:
            self._waiting_on = None
            try:
                error = event.error
                if error is None:
                    yielded = send(event.value)
                else:
                    # The awaited event failed: the exception surfaces
                    # at the process's yield point, where it may be
                    # caught.
                    yielded = self._throw(error)
            except StopIteration as stop:
                self.value = stop.value
                if self.callbacks is None:
                    # Nobody waits: the completion event would fire with
                    # no callbacks to run, so the process is processed
                    # now.  A later ``yield proc`` or add_callback sees
                    # PROCESSED and resumes synchronously with the value.
                    self.state = PROCESSED
                    return
                # Completion is a plain succeed(), flattened.
                self.state = TRIGGERED
                sim = self.sim
                sim._push(sim.now, self)
                return
            except Exception as exc:
                # An uncaught interrupt or error terminates the process;
                # run_until_complete() re-raises it.
                self.error = exc
                self.succeed(None)
                return
            if not isinstance(yielded, Event):
                self.error = ProcessError(
                    f"{self!r} yielded {yielded!r}; processes must yield "
                    "Events")
                self.succeed(None)
                return
            if yielded.state == PROCESSED:
                event = yielded
                continue
            self._waiting_on = yielded
            # Inlined yielded.add_callback(self._resume): one line per
            # wait on the hottest path in the kernel.
            if yielded.callbacks is None:
                yielded.callbacks = [self._resume_cb]
            else:
                yielded.callbacks.append(self._resume_cb)
            return


class _Bootstrap:
    """Queue record payload that performs a process's first step.

    The cheapest object the scheduler loop can fire: ``_process``
    resumes the process with the record itself, whose ``value`` and
    ``error`` are both ``None``.
    """

    __slots__ = ("process",)
    value = None
    error = None

    def __init__(self, process: Process):
        self.process = process

    def _process(self) -> None:
        self.process._resume(self)


class _Interrupted:
    """The wake :meth:`Process.interrupt` delivers: an error, no value."""

    __slots__ = ("error",)
    value = None

    def __init__(self, error: Interrupt):
        self.error = error
