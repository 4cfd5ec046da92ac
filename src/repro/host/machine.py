"""Host CPU model: execution costs, contention, and scheduling jitter.

A :class:`Machine` owns one CPU (the testbed's Pentium IIIs are
uniprocessors).  Simulated work runs through :meth:`execute`, which
serialises on the CPU and charges a *dilated* cost:

* dilation models competing compute-bound processes — the paper's "four
  infinite-loop processes" (§6.1) — stealing cycles from interactive
  work.  We do not simulate the 4.4BSD scheduler quantum-by-quantum;
  I/O-bound threads get priority boosts there, so their slowdown under
  CPU load is a dilation factor, not a full quantum wait.  The factor
  per hog is a calibration constant.
* jitter models wakeup-order nondeterminism among daemons.  This is
  the mechanism behind the paper's client-side *request reordering*
  (§6): two nfsiods dequeueing back-to-back requests can reach the wire
  in either order, and the probability grows with CPU contention —
  exactly the "frequency of packet reordering increases in tandem with
  the number of active processes on the client" observation.
"""

from __future__ import annotations

import random
from typing import Optional

from ..sim import Event, Resource, Simulator


class Machine:
    """A host with one CPU and a contention model."""

    def __init__(self, sim: Simulator, name: str,
                 rng: Optional[random.Random] = None,
                 busy_processes: int = 0,
                 slowdown_per_hog: float = 0.25,
                 jitter_per_hog: float = 0.00007,
                 base_jitter: float = 0.00002):
        if busy_processes < 0:
            raise ValueError("cannot have negative busy processes")
        self.sim = sim
        self.name = name
        self._rng = rng or random.Random(0xCB0)
        self.busy_processes = busy_processes
        self.slowdown_per_hog = slowdown_per_hog
        self.jitter_per_hog = jitter_per_hog
        self.base_jitter = base_jitter
        self.cpu = Resource(sim, capacity=1)
        self.cpu_time_consumed = 0.0

    # ------------------------------------------------------------------

    def add_busy_loops(self, count: int) -> None:
        """Start ``count`` infinite-loop processes (the paper's load)."""
        if count < 0:
            raise ValueError("cannot add a negative number of loops")
        self.busy_processes += count

    @property
    def dilation(self) -> float:
        return 1.0 + self.busy_processes * self.slowdown_per_hog

    def scheduling_jitter(self) -> float:
        """A fresh sample of wakeup-latency jitter."""
        ceiling = (self.base_jitter
                   + self.busy_processes * self.jitter_per_hog)
        return self._rng.uniform(0.0, ceiling)

    # ------------------------------------------------------------------

    def execute(self, seconds: float, jitter: bool = False):
        """Run ``seconds`` of CPU work (generator; serialises on the CPU).

        With ``jitter=True``, a scheduling-jitter delay is added *before*
        the CPU is acquired — modelling the wakeup race among daemons.
        """
        if seconds < 0:
            raise ValueError("cannot execute negative work")
        if jitter:
            wait = self.scheduling_jitter()
            if wait > 0:
                yield self.sim.timeout(wait)
        if not self.cpu.try_acquire():
            # Contended: queue FIFO.  An uncontended grant continues
            # here without a queue round-trip.
            yield self.cpu.acquire()
        try:
            cost = seconds * self.dilation
            self.cpu_time_consumed += cost
            if cost > 0:
                yield self.sim.timeout(cost)
        finally:
            self.cpu.release()
        return None
