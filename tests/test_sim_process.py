"""Unit tests for generator-based processes."""

import pytest

from repro.sim import (Interrupt, Process, ProcessError, SimulationError,
                       Simulator)


def test_process_runs_and_returns_value():
    sim = Simulator()

    def worker(sim):
        yield sim.timeout(1.0)
        yield sim.timeout(0.5)
        return "result"

    process = sim.spawn(worker(sim))
    assert sim.run_until_complete(process) == "result"
    assert sim.now == 1.5


def test_process_is_waitable_event():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(2.0)
        return 7

    def parent(sim):
        value = yield sim.spawn(child(sim))
        return value * 2

    process = sim.spawn(parent(sim))
    assert sim.run_until_complete(process) == 14


def test_non_generator_rejected():
    sim = Simulator()
    with pytest.raises(ProcessError):
        Process(sim, lambda: None)


def test_yielding_non_event_fails_process():
    sim = Simulator()

    def bad(sim):
        yield 42

    process = sim.spawn(bad(sim))
    with pytest.raises(ProcessError):
        sim.run_until_complete(process)


def test_exception_propagates_via_run_until_complete():
    sim = Simulator()

    def boom(sim):
        yield sim.timeout(1.0)
        raise ValueError("kaboom")

    process = sim.spawn(boom(sim))
    with pytest.raises(ValueError, match="kaboom"):
        sim.run_until_complete(process)


def test_interrupt_is_catchable():
    sim = Simulator()
    log = []

    def sleeper(sim):
        try:
            yield sim.timeout(100.0)
        except Interrupt as interrupt:
            log.append(interrupt.cause)
            yield sim.timeout(1.0)
        return "recovered"

    def interrupter(sim, victim):
        yield sim.timeout(2.0)
        victim.interrupt("wake up")
        return None

    victim = sim.spawn(sleeper(sim))
    sim.spawn(interrupter(sim, victim))
    assert sim.run_until_complete(victim) == "recovered"
    assert log == ["wake up"]
    assert sim.now == 3.0


def test_interrupt_finished_process_rejected():
    sim = Simulator()

    def quick(sim):
        yield sim.timeout(0.1)

    process = sim.spawn(quick(sim))
    sim.run()
    with pytest.raises(ProcessError):
        process.interrupt()


def test_deadlock_detected():
    sim = Simulator()

    def stuck(sim):
        yield sim.event("never")

    process = sim.spawn(stuck(sim))
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_until_complete(process)


def test_run_until_time_limit():
    sim = Simulator()

    def ticker(sim):
        for _ in range(100):
            yield sim.timeout(1.0)

    sim.spawn(ticker(sim))
    sim.run(until=5.5)
    assert sim.now == 5.5


def test_run_until_complete_time_limit():
    sim = Simulator()

    def slow(sim):
        yield sim.timeout(10.0)

    process = sim.spawn(slow(sim))
    with pytest.raises(SimulationError, match="time limit"):
        sim.run_until_complete(process, limit=5.0)
    assert not process.finished


@pytest.mark.parametrize("loop", ["run", "run_until_complete"])
def test_queue_going_backwards_is_detected(loop):
    sim = Simulator()
    sim.run(until=2.0)
    sim._push(1.0, sim.event("stale"))       # bypasses the delay check

    def waiter(sim):
        yield sim.timeout(1.0)

    process = sim.spawn(waiter(sim))
    with pytest.raises(SimulationError, match="backwards"):
        if loop == "run":
            sim.run()
        else:
            sim.run_until_complete(process)


def test_run_is_not_reentrant():
    sim = Simulator()
    errors = []

    def nested(_event):
        try:
            sim.run()
        except SimulationError as exc:
            errors.append(exc)

    sim.timeout(1.0).add_callback(nested)
    sim.run()
    assert len(errors) == 1 and "reentrant" in str(errors[0])
