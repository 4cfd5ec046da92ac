"""Exact event budget of two small deterministic cells.

The simulator counts its own work in two ``--metrics`` gauges:
``sim.events_scheduled`` (queue pushes: events, timeouts, process
bootstraps) and ``sim.spawns`` (processes started).  Both are exact
functions of the inputs, so they are pinned here to the unit.  A change
that adds kernel work per NFS op fails this test loudly, with the
per-op ratios in the message, instead of showing up only as host time.
If the change is intended, explain it in CHANGES.md and update the
budget; a drop is as much news as a rise.

Budget history, replay cell (events/op, spawns/op):
    303.4 / 47.9  -- one process per link delivery, TCP ACK and dispatch
    138.9 / 15.8  -- those became scheduled callbacks; uncontended
                     grants and unwatched completions stopped pushing
"""

import dataclasses

import pytest

from repro.host.testbed import TestbedConfig
from repro.replay import capture_nfs_run, replay_trace
from repro.workloads import (NamespaceTreeSpec, NamespaceWorkload,
                             run_namespace_once)


def replay_cell():
    """A scale-1/32 capture replayed over tcp/cursor/improved, 4 clients."""
    source = TestbedConfig(transport="udp", num_clients=2, seed=1)
    trace = capture_nfs_run(source, nreaders=2, scale=1 / 32)
    target = dataclasses.replace(source, transport="tcp",
                                 server_heuristic="cursor",
                                 nfsheur="improved", metrics=True)
    result = replay_trace(trace, target, clients=4)
    assert result.ops_completed == result.offered_ops
    return result.offered_ops, result.metrics["gauges"]


def stat_cell():
    """A Zipf stat() storm over a 1,000-file tree, acregmax=0, UDP."""
    config = TestbedConfig(drive="ide", partition=1, transport="udp",
                           acregmin=0.0, acregmax=0.0, seed=1,
                           metrics=True)
    result = run_namespace_once(
        config, NamespaceTreeSpec(files=1000, depth=1, fanout=16),
        NamespaceWorkload(pattern="stat", ops=200))
    assert result.errors == 0
    return result.ops, result.metrics["gauges"]


#: cell -> (ops, events_scheduled, spawns)
BUDGET = {
    "replay": (replay_cell, 260, 36121, 4109),
    "stat": (stat_cell, 200, 1820, 305),
}


@pytest.mark.parametrize("cell", sorted(BUDGET))
def test_event_budget_is_exact(cell):
    run, ops_expected, events_expected, spawns_expected = BUDGET[cell]
    ops, gauges = run()
    events = int(gauges["sim.events_scheduled"])
    spawns = int(gauges["sim.spawns"])
    assert (ops, events, spawns) == (
        ops_expected, events_expected, spawns_expected), (
        f"{cell}: {events} events ({events / ops:.2f}/op), "
        f"{spawns} spawns ({spawns / ops:.2f}/op) over {ops} ops; "
        f"budget {events_expected} ({events_expected / ops_expected:.2f}"
        f"/op), {spawns_expected} ({spawns_expected / ops_expected:.2f}"
        f"/op)")


def test_sim_gauges_stay_out_of_the_counter_fold():
    """``counters()`` feeds chaos fingerprints and golden cells; harness
    work counts must not leak into it."""
    from repro.host.testbed import build_nfs_testbed
    testbed = build_nfs_testbed(TestbedConfig(metrics=True))
    assert not any(name.startswith("sim.") for name in testbed.counters())
    gauges = testbed.obs.registry.snapshot()["gauges"]
    assert gauges["sim.events_scheduled"] == float(
        testbed.sim.events_scheduled)
    assert gauges["sim.spawns"] == float(testbed.sim.spawns)
