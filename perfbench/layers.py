"""Per-layer measurement, taken from outside the program.

Three instruments, each used only in a traced run:

* :class:`PackageProfile` -- a ``cProfile`` hook whose per-function
  self time and call counts are charged to the ``repro`` package that
  defines each function.  C builtins, generated code (dataclass
  ``__init__``) and the standard library are charged to the package
  that called them.
* :class:`Spans` -- boundary spans around the public entry points,
  kept in memory and written out when the run ends.  A span's self
  time is its duration minus the time its child spans cover.
* :class:`WorkCounter` -- exact counts of scheduled events, spawned
  processes and peak queue depth, taken by wrapping the simulator's
  one scheduling entry (``Simulator._push``, bound per instance in
  ``__init__``) and ``Simulator.spawn``; plus the testbeds built while
  it is installed, whose metrics registries give the model counts.

All three patch attributes for the length of a ``with`` block and put
the originals back on exit.
"""

from __future__ import annotations

import cProfile
import functools
import json
import os
import pstats
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

import repro
from repro.bench import runner
from repro.chaos import engine as chaos_engine
from repro.host import testbed as testbed_module
from repro.nfs.server import NfsServer
from repro.replay import engine as replay_engine
from repro.replay import scale
from repro.sim import Simulator
from repro.workloads import namespace

#: The ``repro`` packages the benchmark exercises, one layer each.
LAYERS = ("sim", "net", "nfs", "readahead", "kernel", "disk", "ffs",
          "host", "faults", "chaos", "replay", "workloads", "obs",
          "bench")
#: Time in ``repro`` code outside ``LAYERS`` (the package root and
#: packages the workloads do not use).
OTHER = "other"
#: Time in the benchmark's own code, and anything no caller claims.
HARNESS = "harness"

_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_HARNESS_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep


def _owner(filename: str) -> Optional[str]:
    """The bucket a function's source file belongs to, or ``None``
    for code that is charged to its callers."""
    path = os.path.abspath(filename) if filename[:1] not in "~<" else ""
    if path.startswith(_REPRO_DIR):
        package = path[len(_REPRO_DIR):].split(os.sep, 1)
        if len(package) == 2 and package[0] in LAYERS:
            return package[0]
        return OTHER
    if path.startswith(_HARNESS_DIR):
        return HARNESS
    return None


class PackageProfile:
    """Self time and calls per layer, from one ``cProfile`` run."""

    def __init__(self):
        self._profile = cProfile.Profile()
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}

    def __enter__(self) -> "PackageProfile":
        self._profile.enable()
        return self

    def __exit__(self, *exc) -> None:
        self._profile.disable()
        self._attribute(pstats.Stats(self._profile).stats)

    def _attribute(self, stats: dict) -> None:
        shares: Dict[tuple, Dict[str, float]] = {}

        def share_of(func: tuple, visiting: frozenset) -> Dict[str, float]:
            """How ``func``'s self time splits over the buckets."""
            if func in shares:
                return shares[func]
            owner = _owner(func[0])
            if owner is not None:
                result = {owner: 1.0}
            else:
                callers = stats[func][4] if func in stats else {}
                total = sum(edge[2] for edge in callers.values())
                result = {}
                for caller, edge in callers.items():
                    if caller in visiting or total <= 0:
                        continue
                    weight = edge[2] / total
                    for bucket, part in share_of(
                            caller, visiting | {func}).items():
                        result[bucket] = result.get(bucket, 0.0) + \
                            weight * part
                if not result:
                    result = {HARNESS: 1.0}
            shares[func] = result
            return result

        self_s = {bucket: 0.0 for bucket in LAYERS + (OTHER, HARNESS)}
        calls = {bucket: 0 for bucket in LAYERS + (OTHER, HARNESS)}
        for func, (_cc, ncalls, tottime, _ct, _callers) in stats.items():
            for bucket, part in share_of(func, frozenset()).items():
                self_s[bucket] += tottime * part
            owner = _owner(func[0])
            if owner is not None:
                calls[owner] += ncalls
        self.self_s, self.calls = self_s, calls


class _Patches:
    """Attribute patches undone in reverse order on exit."""

    def __init__(self):
        self._undo: List[Tuple[object, str, object]] = []

    def set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def function(self, original: Callable, replacement: Callable
                 ) -> None:
        """Rebind every module-level name bound to ``original``.

        Covers every loaded ``repro`` module, so a function imported
        by name into another module is wrapped at that call site too.
        """
        for name, module in list(sys.modules.items()):
            if name != "repro" and not name.startswith("repro."):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attribute, replacement)

    def undo(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


#: (span name, owner, attribute) of every spanned entry point.
ENTRY_POINTS = (
    ("capture_nfs_run", replay_engine, "capture_nfs_run"),
    ("replay_trace", replay_engine, "replay_trace"),
    ("multiplex_trace", scale, "multiplex_trace"),
    ("build_nfs_testbed", testbed_module, "build_nfs_testbed"),
    ("build_local_testbed", testbed_module, "build_local_testbed"),
    ("NfsServer.export_file", NfsServer, "export_file"),
    ("Simulator.run", Simulator, "run"),
    ("run_chaos", chaos_engine, "run_chaos"),
    ("run_local_once", runner, "run_local_once"),
    ("run_namespace_once", namespace, "run_namespace_once"),
)


class Spans:
    """Boundary spans around the program's public entry points."""

    def __init__(self):
        self.spans: List[list] = []   # [name, parent, start, end]
        self._stack: List[int] = []
        self._patches = _Patches()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            index = len(spans)
            spans.append([name, stack[-1] if stack else -1,
                          time.perf_counter(), None])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][3] = time.perf_counter()
        return spanned

    def __enter__(self) -> "Spans":
        for name, owner, attribute in ENTRY_POINTS:
            original = getattr(owner, attribute)
            wrapped = self._wrap(name, original)
            if isinstance(owner, type):
                self._patches.set(owner, attribute, wrapped)
            else:
                self._patches.function(original, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        self._patches.undo()

    def self_times(self) -> List[float]:
        """Each span's duration minus its children's durations."""
        own = [end - start for _name, _parent, start, end in self.spans]
        for _name, parent, start, end in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def self_s_by_name(self) -> Dict[str, float]:
        totals: Dict[str, float] = {name: 0.0 for name, _o, _a
                                    in ENTRY_POINTS}
        for (name, *_rest), own in zip(self.spans, self.self_times()):
            totals[name] += own
        return totals

    def write(self, path: str) -> None:
        """Write every span (times relative to the first) as JSON."""
        origin = self.spans[0][2] if self.spans else 0.0
        records = [{"name": name, "parent": parent,
                    "start_s": start - origin, "end_s": end - origin,
                    "self_s": own}
                   for (name, parent, start, end), own
                   in zip(self.spans, self.self_times())]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"spans": records}, handle, indent=1)
            handle.write("\n")


class WorkCounter:
    """Exact event/spawn/peak-depth counts and the testbeds built."""

    def __init__(self):
        self.events = 0
        self.spawns = 0
        self.peak_pending = 0
        self.testbeds: list = []
        self._patches = _Patches()

    def __enter__(self) -> "WorkCounter":
        original_init = Simulator.__init__
        original_spawn = Simulator.spawn
        counter = self

        def counting_init(sim, *args, **kwargs):
            original_init(sim, *args, **kwargs)
            push, queue = sim._push, sim._queue

            def counted_push(when, event):
                counter.events += 1
                push(when, event)
                depth = len(queue)
                if depth > counter.peak_pending:
                    counter.peak_pending = depth
            sim._push = counted_push

        def counted_spawn(sim, generator, name=None):
            counter.spawns += 1
            return original_spawn(sim, generator, name)

        self._patches.set(Simulator, "__init__", counting_init)
        self._patches.set(Simulator, "spawn", counted_spawn)
        for attribute in ("build_nfs_testbed", "build_local_testbed"):
            original = getattr(testbed_module, attribute)
            self._patches.function(original, self._keeping(original))
        return self

    def _keeping(self, build: Callable) -> Callable:
        testbeds = self.testbeds

        @functools.wraps(build)
        def kept(*args, **kwargs):
            testbed = build(*args, **kwargs)
            testbeds.append(testbed)
            return testbed
        return kept

    def __exit__(self, *exc) -> None:
        self._patches.undo()

    def snapshots(self) -> List[dict]:
        """Registry snapshots of every testbed built with metrics on."""
        return [tb.obs.registry.snapshot() for tb in self.testbeds
                if tb.obs.registry.enabled]


def model_counts(snapshots: List[dict]) -> Dict[str, float]:
    """Simulated model counts, read from the program's own registry.

    Counts are summed over the testbeds; ratios are the mean of the
    per-testbed ratios; the bufq wait is the mean over all waits.
    """
    def gauge_sum(name: str) -> float:
        return sum(snap["gauges"].get(name, 0.0) for snap in snapshots)

    def gauge_mean(name: str) -> float:
        values = [snap["gauges"][name] for snap in snapshots
                  if name in snap["gauges"]]
        return sum(values) / len(values) if values else 0.0

    def histogram(name: str) -> Tuple[int, float]:
        count, total = 0, 0.0
        for snap in snapshots:
            hist = snap["histograms"].get(name)
            if hist is not None:
                count += hist["count"]
                total += hist["sum"]
        return count, total

    bufq_count, bufq_sum = histogram("kernel.bufq.wait_s")
    disk_requests, _ = histogram("disk.service_s")
    return {
        "net.rpc_retransmits": gauge_sum("rpc.client.retransmits"),
        "net.tcp_segment_retransmits":
            gauge_sum("net.tcp.segment_retransmits"),
        "net.udp_datagrams_lost": gauge_sum("net.udp.datagrams_lost"),
        "nfs.server_lookups": gauge_sum("nfs.server.lookups"),
        "nfs.attr_misses": gauge_sum("nfs.client.attr_misses"),
        "nfs.nfsheur_hit_rate":
            gauge_mean("nfs.server.nfsheur_hit_rate"),
        "kernel.cache_hit_rate": gauge_mean("kernel.cache.hit_rate"),
        "kernel.bufq_wait_s_mean":
            bufq_sum / bufq_count if bufq_count else 0.0,
        "disk.requests": float(disk_requests),
        "disk.cache_hit_rate": gauge_mean("disk.cache.hit_rate"),
        "disk.busy_s": gauge_sum("disk.busy_s"),
    }
