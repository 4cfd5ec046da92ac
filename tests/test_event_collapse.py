"""The collapsed kernel primitives keep their timing, with fewer events.

Each fire-and-forget process whose timing was known at creation is now
one scheduled event or callback, and an uncontended grant no longer
round-trips the queue.  These tests pin, primitive by primitive, that
the simulated times are exactly (bit for bit where the arithmetic
allows) what the process-based versions produced, and that the queue
pushes really went away.
"""

import random

import pytest

from repro.faults.network import DELIVER, DROP_CORRUPT, DROP_LOSS
from repro.host.machine import Machine
from repro.net import GIGABIT, Link, TcpConnection, UdpEndpoint
from repro.net.frames import plan_tcp_stream, plan_udp_datagram
from repro.net.link import SERVER_PCI_DMA
from repro.sim import RateLimiter, Simulator, Store


# ---------------------------------------------------------------------------
# Link: one delivery event at the time two waits used to reach.


def process_link_send(sim, nic, bus, latency, wire_bytes, times):
    """The process-based ``Link.send``: wait out the NIC serialisation,
    then the latency, then deliver."""
    if bus is not None:
        bus.transfer(wire_bytes)
        nic._busy_until = max(nic._busy_until,
                              bus.busy_until - wire_bytes / nic.rate)
    serialised = nic.transfer(wire_bytes)

    def deliver():
        yield serialised
        yield sim.timeout(latency)
        times.append(sim.now)
    sim.spawn(deliver())


def drive_sends(send, sim, seed):
    """Send a seeded burst of odd-sized messages at odd instants."""
    rng = random.Random(seed)

    def sender():
        for _ in range(60):
            yield sim.timeout(rng.choice([0.0, 0.0, rng.random() * 1e-4]))
            send(rng.randint(64, 70_000))
    sim.spawn(sender())
    sim.run()


def link_times(bus_rate, contend, seed, collapsed):
    """Delivery times of one link's sends, optionally behind a shared
    bus that a second link and a disk-style transfer also book."""
    sim = Simulator()
    bus = RateLimiter(sim, bus_rate) if bus_rate else None
    times = []
    if collapsed:
        link = Link(sim, GIGABIT, latency=0.00003, bus=bus)
        other = Link(sim, GIGABIT, latency=0.00003, bus=bus)

        def send(nbytes):
            link.send(nbytes).add_callback(
                lambda _ev: times.append(sim.now))
            if contend:
                other.send(nbytes // 3)
                bus.transfer(nbytes // 5)
    else:
        nic = RateLimiter(sim, GIGABIT)
        other_nic = RateLimiter(sim, GIGABIT)

        def send(nbytes):
            process_link_send(sim, nic, bus, 0.00003, nbytes, times)
            if contend:
                process_link_send(sim, other_nic, bus, 0.00003,
                                  nbytes // 3, [])
                bus.transfer(nbytes // 5)
    drive_sends(send, sim, seed)
    return times


class TestLinkDelivery:
    @pytest.mark.parametrize("bus_rate,contend", [
        (None, False),
        (SERVER_PCI_DMA, False),
        (SERVER_PCI_DMA, True),
        (GIGABIT / 7, True),
    ])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_delivery_times_match_the_two_wait_process_exactly(
            self, bus_rate, contend, seed):
        old = link_times(bus_rate, contend, seed, collapsed=False)
        new = link_times(bus_rate, contend, seed, collapsed=True)
        assert len(new) == 60
        assert new == old       # float-exact, not approx

    def test_one_push_per_send(self):
        sim = Simulator()
        bus = RateLimiter(sim, SERVER_PCI_DMA)
        link = Link(sim, GIGABIT, bus=bus)
        before = sim.events_scheduled
        link.send(9000)
        assert sim.events_scheduled - before == 1
        assert sim.spawns == 0

    def test_book_returns_the_transfer_finish_time(self):
        sim = Simulator()
        pipe = RateLimiter(sim, 1_000, per_transfer_overhead=0.5)
        assert pipe.book(1_000) == 1.5
        assert pipe.book(500) == 2.5           # queued behind the first
        assert pipe.bytes_moved == 1_500
        assert sim.events_scheduled == 0       # booking schedules nothing
        done = pipe.transfer(1_000)
        sim.run()
        assert done.processed and sim.now == 4.0


class _ScriptedFaults:
    """A network injector stand-in that returns a fixed fate sequence."""

    def __init__(self, fates):
        self._fates = list(fates)

    def datagram_fate(self, frames, now):
        return self._fates.pop(0)


class TestUdpWireOccupancy:
    @pytest.mark.parametrize("fate", [DROP_LOSS, DROP_CORRUPT])
    def test_dead_datagrams_still_occupy_the_wire(self, fate):
        sim = Simulator()
        rate, latency = 1_000_000, 0.001
        link = Link(sim, rate=rate, latency=latency)
        sender = UdpEndpoint(sim, link,
                             faults=_ScriptedFaults([fate, fate, DELIVER]))
        peer = UdpEndpoint(sim, Link(sim, rate=rate))
        sender.connect(peer)
        arrivals = []
        peer.bind(lambda message: arrivals.append((message, sim.now)))
        for message in ("lost-1", "lost-2", "kept"):
            sender.send(message, 4_000)
        sim.run()
        wire = plan_udp_datagram(4_000).wire_bytes
        assert sender.datagrams_lost == 2
        assert link.messages_sent == 3 and link.bytes_sent == 3 * wire
        # The survivor queued behind both dead datagrams' frames.
        assert arrivals == [("kept",
                             pytest.approx(3 * wire / rate + latency))]


# ---------------------------------------------------------------------------
# TCP: the ACK is a timeout callback, the send queue a non-blocking take.


class TestTcpWindowRelease:
    def test_blocked_sender_wakes_ack_latency_after_delivery(self):
        sim = Simulator()
        rate, latency = 1_000_000, 0.0005
        payload = 1_000
        wire = plan_tcp_stream(payload).wire_bytes
        # A window of exactly one message: the second send blocks until
        # the first one's ACK frees it.
        conn = TcpConnection(sim, Link(sim, rate=rate, latency=latency),
                             window=wire)
        arrivals = []
        conn.bind(lambda message: arrivals.append(sim.now))
        conn.send("a", payload)
        conn.send("b", payload)
        sim.run()
        first = TcpConnection.SEND_OVERHEAD + wire / rate + latency
        window_back = first + TcpConnection.ACK_LATENCY
        second = (window_back + TcpConnection.SEND_OVERHEAD
                  + wire / rate + latency)
        assert arrivals == [pytest.approx(first, abs=1e-12),
                            pytest.approx(second, abs=1e-12)]
        assert conn._window_free == wire       # every ACK came back

    def test_ack_needs_no_process(self):
        sim = Simulator()
        conn = TcpConnection(sim, Link(sim, GIGABIT))
        conn.bind(lambda message: None)
        for index in range(10):
            conn.send(index, 8 * 1024)
        sim.run()
        assert sim.spawns == 1                 # the sender loop only
        assert conn.messages_sent == 10

    def test_store_try_get_is_a_non_blocking_take(self):
        sim = Simulator()
        store = Store(sim)
        assert store.try_get() is None
        store.put("x")
        store.put("y")
        assert store.try_get() == "x" and len(store) == 1
        assert sim.events_scheduled == 0


# ---------------------------------------------------------------------------
# Process completion and uncontended grants.


class TestProcessCompletion:
    def test_unwatched_process_finishes_without_a_push(self):
        sim = Simulator()

        def child():
            yield sim.timeout(1.0)
            return 42

        proc = sim.spawn(child())
        sim.run()
        # Bootstrap and the timeout; no completion event.
        assert sim.events_scheduled == 2
        assert proc.processed and proc.value == 42

    def test_same_instant_late_waiter_still_gets_the_value(self):
        sim = Simulator()
        got = []

        def child():
            return "v"
            yield  # pragma: no cover - makes this a generator

        def late(proc):
            assert proc.processed       # child finished first, unwatched
            got.append((yield proc))
            got.append(sim.now)

        proc = sim.spawn(child())
        sim.spawn(late(proc))
        sim.run()
        assert got == ["v", 0.0]

    def test_watched_process_still_fires_its_completion(self):
        sim = Simulator()
        order = []

        def child():
            yield sim.timeout(1.0)
            return 7

        proc = sim.spawn(child())
        proc.add_callback(lambda ev: order.append(("cb", ev.value)))
        sim.run()
        assert order == [("cb", 7)]
        assert sim.events_scheduled == 3       # + the completion event


class TestUncontendedGrant:
    def test_uncontended_execute_adds_only_its_cpu_timeout(self):
        sim = Simulator()
        machine = Machine(sim, "m", rng=random.Random(0))

        def work():
            yield from machine.execute(0.25)

        sim.spawn(work())
        sim.run()
        # Bootstrap and the CPU-cost timeout; the grant is not queued.
        assert sim.events_scheduled == 2
        assert sim.now == 0.25
        assert machine.cpu_time_consumed == 0.25
        assert machine.cpu.in_use == 0

    def test_contended_callers_are_granted_fifo(self):
        sim = Simulator()
        machine = Machine(sim, "m", rng=random.Random(0))
        finished = []

        def work(index):
            yield from machine.execute(1.0)
            finished.append((index, sim.now))

        for index in range(4):
            sim.spawn(work(index))
        sim.run()
        assert finished == [(0, 1.0), (1, 2.0), (2, 3.0), (3, 4.0)]
        assert machine.cpu.in_use == 0 and machine.cpu.queued == 0
