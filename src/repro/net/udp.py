"""UDP transport: connectionless datagrams over a link.

UDP's two properties that matter to the paper (§5.4):

* it is cheap — no connection state, no stream reassembly — which is why
  NFS over UDP beats TCP at low concurrency; and
* a datagram is all-or-nothing: it is IP-fragmented into several
  Ethernet frames and the loss of any one frame loses the datagram.
  On the paper's single-switch LAN the loss rate is effectively zero,
  but the transport models it so lossy-network experiments are possible.

Delivery order follows completion order on the link — UDP itself adds
no reordering on a single switched path, and none of the paper's
reordering comes from the network (§6: "in our system the reorderings
are attributable to nfsiod").
"""

from __future__ import annotations

import random
from typing import Any, Callable, Optional

from ..faults.network import (DELIVER, DROP_PARTITION, DUPLICATE,
                              NetworkFaultInjector)
from ..sim import Simulator
from .frames import plan_udp_datagram
from .link import Link


class UdpEndpoint:
    """One side of a UDP flow: a transmit link plus a receive handler.

    ``faults`` (a :class:`~repro.faults.NetworkFaultInjector`) supersedes
    the plain Bernoulli ``loss_rate``: burst loss, corruption,
    duplication, and partitions all apply per datagram, with the paper's
    all-or-nothing fragmentation rule — one dead frame kills the whole
    datagram (§5.4).
    """

    #: Counters, for :func:`repro.obs.metrics.fold_counters`.
    COUNTERS = ("datagrams_sent", "datagrams_lost", "datagrams_duplicated")
    #: Per-datagram protocol processing cost on the sending host.
    SEND_OVERHEAD = 0.00001

    def __init__(self, sim: Simulator, tx_link: Link,
                 loss_rate: float = 0.0,
                 rng: Optional[random.Random] = None,
                 faults: Optional[NetworkFaultInjector] = None,
                 name: str = "udp"):
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss rate must be in [0, 1)")
        self.sim = sim
        self.tx_link = tx_link
        self.loss_rate = loss_rate
        self.faults = faults
        self.name = name
        self._rng = rng or random.Random(0x0D9)
        self._receiver: Optional[Callable[[Any], None]] = None
        self.datagrams_sent = 0
        self.datagrams_lost = 0
        self.datagrams_duplicated = 0
        self._metrics_on = sim.obs.registry.enabled
        self._m_wire = sim.obs.registry.histogram("net.wire_s")

    def bind(self, receiver: Callable[[Any], None]) -> None:
        """Set the function invoked (at delivery time) per datagram."""
        self._receiver = receiver

    def connect(self, peer: "UdpEndpoint") -> None:
        """Convenience: deliver our sends to ``peer``'s receiver."""
        self._peer = peer

    def send(self, message: Any, payload_bytes: int) -> None:
        """Fire-and-forget: fragment, maybe drop, deliver to the peer."""
        if self._peer is None:
            raise RuntimeError(f"{self.name}: not connected")
        plan = plan_udp_datagram(payload_bytes)
        self.datagrams_sent += 1
        if self.faults is not None:
            fate = self.faults.datagram_fate(plan.frames, self.sim.now)
            if fate == DROP_PARTITION:
                # A partitioned datagram never reaches the wire.
                self.datagrams_lost += 1
                return
            if fate not in (DELIVER, DUPLICATE):
                # Lost or corrupted in transit: the frames still burn
                # wire time, the peer just never assembles the datagram.
                self.datagrams_lost += 1
                self.tx_link.send(plan.wire_bytes)
                return
            delivery = self.tx_link.send(plan.wire_bytes)
            delivery.add_callback(
                lambda _ev, m=message: self._peer._deliver(m))
            if self._metrics_on:
                self._observe_delivery(delivery)
            if fate == DUPLICATE:
                self.datagrams_duplicated += 1
                dup = self.tx_link.send(plan.wire_bytes)
                dup.add_callback(
                    lambda _ev, m=message: self._peer._deliver(m))
            return
        if self.loss_rate > 0.0:
            survive = (1.0 - self.loss_rate) ** plan.frames
            if self._rng.random() > survive:
                self.datagrams_lost += 1
                self.tx_link.send(plan.wire_bytes)  # still burns the wire
                return
        delivery = self.tx_link.send(plan.wire_bytes)
        delivery.add_callback(
            lambda _ev, m=message: self._peer._deliver(m))
        if self._metrics_on:
            self._observe_delivery(delivery)

    def _observe_delivery(self, delivery) -> None:
        """Record send-to-delivery wire time for a surviving datagram."""
        t0 = self.sim.now
        delivery.add_callback(
            lambda _ev: self._m_wire.observe(self.sim.now - t0))

    _peer: Optional["UdpEndpoint"] = None

    def _deliver(self, message: Any) -> None:
        if self._receiver is None:
            raise RuntimeError(f"{self.name}: no receiver bound")
        self._receiver(message)
