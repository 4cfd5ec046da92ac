"""The kernel's dispatch layer between the buffer cache and the drive.

With tagged command queueing *off*, the kernel queue (elevator or
N-CSCAN) is the scheduler: one command is outstanding at the drive and
the queue picks each successor — this is the regime where the paper's
bufq experiments (Figure 3) are visible.

With tagged command queueing *on*, the kernel pushes commands to the
drive as fast as the drive's queue accepts them (up to ``tcq_depth``),
and the firmware decides order; the kernel queue only buffers overflow.
That is how enabling tags "overrides many of the scheduling decisions
made by the host" (§5.3).

A small per-dispatch CPU cost models the driver/interrupt path.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from ..disk.drive import DiskDrive
from ..disk.request import DiskRequest
from ..obs.provenance import (EDGE_DISPATCHED_AFTER, EDGE_ISSUED,
                              EDGE_QUEUED_BEHIND, QUEUED_BEHIND_FANOUT)
from ..sim import Event, Simulator
from .bufq import BufQueue, make_bufq


class DiskIoScheduler:
    """Feeds a drive from a switchable kernel queue.

    The ``policy`` property can be reassigned at runtime — mirroring the
    paper's sysctl-style switch between the elevator and N-CSCAN —
    as long as the queue is momentarily empty.
    """

    def __init__(self, sim: Simulator, drive: DiskDrive,
                 policy: str = "elevator",
                 dispatch_overhead: float = 0.00005):
        self.sim = sim
        self.drive = drive
        self._bufq: BufQueue = make_bufq(policy)
        self.dispatch_overhead = dispatch_overhead
        self._in_flight = 0
        self.dispatched = 0
        self._pump_scheduled = False
        self._obs_on = sim.obs.enabled
        #: Queue residency, insert-to-dispatch.
        self._m_wait = sim.obs.registry.histogram("kernel.bufq.wait_s")
        #: request id -> (span, insert time) while queued.
        self._pending_obs = {}
        # Provenance bookkeeping (pure reads/appends, no events):
        # request id -> (dispatches, write dispatches) at insert time,
        # a bounded ring of recent dispatches for queued-behind edges,
        # and the previous dispatch for the dispatched-after chain.
        self._prov_ins = {}
        self._recent = deque(maxlen=QUEUED_BEHIND_FANOUT)
        self._write_dispatches = 0
        self._last_dispatch: Optional[int] = None

    # ------------------------------------------------------------------

    @property
    def policy(self) -> str:
        return self._bufq.name

    def set_policy(self, policy: str) -> None:
        """Switch scheduling algorithm (queue must be idle)."""
        if len(self._bufq):
            raise RuntimeError(
                "cannot switch disk scheduling policy with requests queued")
        self._bufq = make_bufq(policy)

    @property
    def queued(self) -> int:
        return len(self._bufq)

    # ------------------------------------------------------------------

    def submit(self, request: DiskRequest) -> Event:
        """Queue a request; returns its completion event."""
        if request.done is None:
            request.done = self.sim.event(name=f"io#{request.id}")
        if self._obs_on:
            tracer = self.sim.obs.tracer
            if tracer.enabled:
                span = tracer.start("bufq", "kernel.bufq",
                                    parent=request.trace_ctx,
                                    lba=request.lba)
                prov = self.sim.obs.prov
                if prov.enabled:
                    if request.trace_ctx is not None:
                        prov.edge(EDGE_ISSUED, request.trace_ctx, span)
                    self._prov_ins[request.id] = (
                        self.dispatched, self._write_dispatches)
            else:
                span = None
            self._pending_obs[request.id] = (span, self.sim.now)
        self._bufq.insert(request)
        self._pump()
        return request.done

    def _pump(self) -> None:
        limit = self.drive.queue_limit
        while self._in_flight < limit:
            request = self._bufq.next()
            if request is None:
                break
            if self._obs_on:
                span, inserted = self._pending_obs.pop(
                    request.id, (None, None))
                if inserted is not None:
                    self._m_wait.observe(self.sim.now - inserted)
                if span is not None:
                    prov = self.sim.obs.prov
                    if prov.enabled:
                        self._prov_dispatch(request, span)
                    span.finish()
            self._in_flight += 1
            self.dispatched += 1
            request.done.add_callback(self._on_complete)
            if self.dispatch_overhead > 0:
                # The command reaches the drive dispatch_overhead later.
                self.sim.timeout(self.dispatch_overhead,
                                 request).add_callback(self._dispatch)
            else:
                self.drive.submit(request)

    def _prov_dispatch(self, request: DiskRequest, span) -> None:
        """Record this dispatch's causal context (provenance runs only).

        ``dispatched-after`` chains every dispatch to its predecessor;
        ``queued-behind`` names the (bounded ring of) requests the
        elevator sent ahead of this one while it sat queued, with the
        exact overtake counts carried as a note.
        """
        prov = self.sim.obs.prov
        ins = self._prov_ins.pop(request.id, None)
        if self._last_dispatch is not None:
            prov.edge(EDGE_DISPATCHED_AFTER, span, self._last_dispatch)
        if ins is not None:
            behind = self.dispatched - ins[0]
            if behind:
                for index, span_id, is_write, lba in self._recent:
                    if index >= ins[0]:
                        prov.edge(EDGE_QUEUED_BEHIND, span, span_id,
                                  write=is_write, lba=lba)
                prov.note(span, behind=behind,
                          behind_writes=(self._write_dispatches
                                         - ins[1]))
        self._recent.append((self.dispatched, span.id,
                             request.is_write, request.lba))
        self._last_dispatch = span.id
        if request.is_write:
            self._write_dispatches += 1

    def _dispatch(self, timeout: Event) -> None:
        self.drive.submit(timeout.value)

    def _on_complete(self, event: Event) -> None:
        self._in_flight -= 1
        self._pump()
