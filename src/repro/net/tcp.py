"""TCP transport: one reliable, ordered byte stream per connection.

What distinguishes NFS over TCP in the paper (§5.4):

* a single connection per mount carries *all* RPC traffic, so messages
  are delivered strictly in the order they were written — the transport
  undoes most of the client-side request reordering (the authors
  measured ≤2 % reordering on TCP vs ≤6 % on UDP);
* the stream machinery costs more per message (segment processing,
  acknowledgements, window bookkeeping), so peak throughput is lower;
* flow control paces the sender via a window of unacknowledged bytes.

The model: writes enter a FIFO; a sender process drains it, transmitting
each message when window space is available; the receiver frees window
space one acknowledgement-latency after delivery (a timeout whose
callback returns the bytes and wakes the blocked sender).  Loss and
retransmit are modelled as a fast-retransmit-class penalty per lost
segment (a few milliseconds, versus UDP's coarse RPC timer) —
negligible on the paper's LAN, decisive in the lossy-network extension
experiment.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Any, Callable, Optional

from ..faults.network import NetworkFaultInjector
from ..sim import Event, Simulator, Store
from .frames import plan_tcp_stream
from .link import Link

#: FreeBSD 4.x default socket buffer — the flow-control window.
DEFAULT_WINDOW = 32 * 1024


class TcpConnection:
    """One direction of an established TCP connection.

    Create one per direction (requests and replies are separate
    streams in this model, as each direction has its own link).
    """

    #: Counters, for :func:`repro.obs.metrics.fold_counters`.
    COUNTERS = ("messages_sent", "retransmits")
    #: Per-message protocol processing cost on the sending host (TCP is
    #: the heavier transport; compare UdpEndpoint.SEND_OVERHEAD).
    SEND_OVERHEAD = 0.00012
    #: Time for the ACK that frees window space to come back.
    ACK_LATENCY = 0.00012

    def __init__(self, sim: Simulator, tx_link: Link,
                 window: int = DEFAULT_WINDOW,
                 loss_rate: float = 0.0,
                 retransmit_timeout: float = 0.005,
                 rng: Optional[random.Random] = None,
                 faults: Optional[NetworkFaultInjector] = None,
                 name: str = "tcp"):
        if window <= 0:
            raise ValueError("window must be positive")
        self.sim = sim
        self.tx_link = tx_link
        self.window = window
        self.loss_rate = loss_rate
        self.retransmit_timeout = retransmit_timeout
        self.faults = faults
        self.name = name
        self._window_name = f"{name}.window"
        self._rng = rng or random.Random(0x7C9)
        self._receiver: Optional[Callable[[Any], None]] = None
        self._sendq: Store = Store(sim)
        self._window_free = window
        self._window_waiters: deque = deque()
        self.messages_sent = 0
        self.retransmits = 0
        self._m_wire = sim.obs.registry.histogram("net.wire_s")
        sim.spawn(self._sender(), name=f"{name}.sender")

    def bind(self, receiver: Callable[[Any], None]) -> None:
        self._receiver = receiver

    def send(self, message: Any, payload_bytes: int) -> None:
        """Write a message to the stream (fire-and-forget, ordered)."""
        self._sendq.put((message, payload_bytes, self.sim.now))

    # ------------------------------------------------------------------

    def _sender(self):
        while True:
            item = self._sendq.try_get()
            if item is None:
                item = yield self._sendq.get()
            message, payload, enqueued = item
            plan = plan_tcp_stream(payload)
            yield from self._reserve_window(min(plan.wire_bytes,
                                                self.window))
            yield self.sim.timeout(self.SEND_OVERHEAD)
            if self.faults is not None:
                # A partition stalls the stream: TCP keeps retrying and
                # the connection survives (no datagrams vanish), but
                # nothing crosses until the window ends.
                wait = self.faults.partition_wait(self.sim.now)
                while wait > 0.0:
                    yield self.sim.timeout(wait)
                    wait = self.faults.partition_wait(self.sim.now)
                # Per-segment recovery: each dead frame costs one
                # fast-retransmit-class penalty, not a whole datagram —
                # the §5.4 asymmetry with UDP.  (Sequence numbers also
                # make TCP immune to duplication faults.)
                for _ in range(self.faults.frame_losses(plan.frames,
                                                        self.sim.now)):
                    self.retransmits += 1
                    yield self.sim.timeout(self.retransmit_timeout)
            elif self.loss_rate > 0.0:
                survive = (1.0 - self.loss_rate) ** plan.frames
                while self._rng.random() > survive:
                    self.retransmits += 1
                    yield self.sim.timeout(self.retransmit_timeout)
            delivery = self.tx_link.send(plan.wire_bytes)
            # In-order delivery: the sender waits for this message to
            # arrive before transmitting the next (the link itself
            # serialises, so this costs only the propagation latency).
            yield delivery
            self.messages_sent += 1
            if self._receiver is None:
                raise RuntimeError(f"{self.name}: no receiver bound")
            # Stream residency: write-to-delivery, including sendq and
            # window waits — the transport latency an RPC actually sees.
            self._m_wire.observe(self.sim.now - enqueued)
            self._receiver(message)
            # The ACK that frees the window lands ACK_LATENCY later.
            self.sim.timeout(self.ACK_LATENCY,
                             min(plan.wire_bytes, self.window)
                             ).add_callback(self._release_window)

    def _reserve_window(self, nbytes: int):
        while self._window_free < nbytes:
            gate = Event(self.sim, self._window_name)
            self._window_waiters.append(gate)
            yield gate
        self._window_free -= nbytes
        return None

    def _release_window(self, ack: Event) -> None:
        self._window_free += ack.value
        while self._window_waiters:
            self._window_waiters.popleft().succeed()
