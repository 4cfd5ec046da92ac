"""The four benchmark workloads.

Each workload is a closed loop of *units*.  A unit builds a fresh
testbed (so every simulated cache starts empty, the paper's
cache-defeat protocol), runs it to completion, and returns how many
ops it attempted, how many of them failed, and a digest of its
simulated result.  ``prepare`` is the per-run set-up that comes before
the first timed unit.

Every ``repro`` entry point is called through its module
(``replay_engine.replay_trace``, not a name bound at import), so the
span wrappers in :mod:`layers` see the calls.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Any

from repro.bench import fileset, runner
from repro.chaos import engine as chaos_engine
from repro.chaos import MixedWorkload, ScheduleFuzzer
from repro.host.testbed import TestbedConfig
from repro.replay import engine as replay_engine
from repro.replay import dumps_trace
from repro.workloads import NamespaceTreeSpec, NamespaceWorkload
from repro.workloads import namespace as namespace_workloads

#: One ``local_tcq`` op is one 8 KiB block of application reads.
BLOCK = 8 * 1024


def digest(payload: Any) -> str:
    """SHA-256 of a canonical JSON rendering of ``payload``."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class Unit:
    """One unit's outcome: ops attempted, ops failed, result digest."""

    ops: int
    failed: int
    digest: str
    #: Failed oracle verdicts (chaos schedules only).
    oracle_failures: int = 0


class Workload:
    """Base class: the sizes and the loop contract of one workload.

    ``identical_units`` says whether every unit of a run repeats the
    same simulation, in which case every unit must give the same
    digest.  ``min_units`` is the fewest units a timed run makes,
    ``trace_units`` the fixed number a traced run makes so that its
    counts repeat exactly.
    """

    name = ""
    identical_units = True
    min_units = 3
    trace_units = 1

    def __init__(self, seed: int, small: bool = False):
        self.seed = seed
        self.small = small

    def prepare(self, metrics: bool = False) -> Any:
        """Per-run set-up; returns the context units run against."""
        raise NotImplementedError

    def setup_digest(self, context: Any) -> str:
        """Digest of what ``prepare`` produced (empty if nothing)."""
        return ""

    def run_unit(self, context: Any, index: int) -> Unit:
        raise NotImplementedError


class ReplayTcp(Workload):
    """Replay a captured UDP run against tcp/cursor/improved."""

    name = "replay_tcp"

    def prepare(self, metrics: bool = False):
        source = TestbedConfig(transport="udp", server_heuristic="default",
                               nfsheur="default", num_clients=2,
                               seed=self.seed)
        trace = replay_engine.capture_nfs_run(
            source, nreaders=2, scale=0.03125 if self.small else 0.125)
        target = replace(source, transport="tcp",
                         server_heuristic="cursor", nfsheur="improved",
                         metrics=metrics)
        return trace, target

    def setup_digest(self, context) -> str:
        trace, _ = context
        return hashlib.sha256(dumps_trace(trace).encode()).hexdigest()

    def run_unit(self, context, index: int) -> Unit:
        trace, target = context
        result = replay_engine.replay_trace(
            trace, target, mode=replay_engine.CLOSED_LOOP, clients=4)
        missing = result.offered_ops - result.ops_completed
        return Unit(ops=result.offered_ops,
                    failed=result.errors + max(0, missing),
                    digest=digest(result.summary()))


class LocalTcq(Workload):
    """16 sequential readers on local SCSI partition 1, TCQ on."""

    name = "local_tcq"
    readers = 16

    def prepare(self, metrics: bool = False):
        config = TestbedConfig(drive="scsi", partition=1,
                               tagged_queueing=True, seed=self.seed,
                               metrics=metrics)
        scale = 0.0625 if self.small else 1.0
        sizes = [spec.size for spec in
                 fileset.files_for_readers(self.readers, scale)]
        return config, scale, sizes

    def run_unit(self, context, index: int) -> Unit:
        config, scale, sizes = context
        result = runner.run_local_once(config, self.readers, scale=scale)
        expected = sum(sizes)
        read = sum(min(reader.bytes_read, size) for reader, size
                   in zip(result.readers, sizes))
        errors = sum(reader.errors for reader in result.readers)
        return Unit(ops=expected // BLOCK,
                    failed=errors + (expected - read) // BLOCK,
                    digest=digest(result.completion_times()))


class ChaosMixed(Workload):
    """Mixed write+metadata chaos schedules over UDP, oracles checked.

    Unit ``i`` is schedule ``i`` of the fuzzer seeded with the workload
    seed, on config seed ``seed + 1000*i``: the seeds ``run_campaign``
    gives its schedules.
    """

    name = "chaos_mixed"
    identical_units = False
    trace_units = 20

    @property
    def min_units(self) -> int:
        # 200 puts ten schedules beyond the 95th percentile.
        return 5 if self.small else 200

    def prepare(self, metrics: bool = False):
        config = TestbedConfig(transport="udp", num_clients=2,
                               seed=self.seed, metrics=metrics)
        return config, ScheduleFuzzer(seed=self.seed), MixedWorkload()

    def run_unit(self, context, index: int) -> Unit:
        config, fuzzer, workload = context
        result = chaos_engine.run_chaos(
            config.with_seed(config.seed + 1000 * index),
            fuzzer.schedule(index), workload)
        return Unit(ops=1, failed=0 if result.ok else 1,
                    digest=result.fingerprint,
                    oracle_failures=len(result.failed_oracles))


class NsStat(Workload):
    """Zipf stat() storm over a 10k-file tree with acregmax=0."""

    name = "ns_stat"
    trace_units = 2

    def prepare(self, metrics: bool = False):
        config = TestbedConfig(drive="ide", partition=1, transport="udp",
                               acregmin=0.0, acregmax=0.0,
                               seed=self.seed, metrics=metrics)
        tree = NamespaceTreeSpec(files=1000 if self.small else 10_000,
                                 depth=1, fanout=16)
        workload = NamespaceWorkload(pattern="stat",
                                     ops=200 if self.small else 2000)
        return config, tree, workload

    def run_unit(self, context, index: int) -> Unit:
        config, tree, workload = context
        result = namespace_workloads.run_namespace_once(
            config, tree, workload)
        missing = workload.ops - result.ops - result.errors
        return Unit(ops=workload.ops,
                    failed=result.errors + max(0, missing),
                    digest=digest(result.summary()))


WORKLOADS = {cls.name: cls for cls in (ReplayTcp, LocalTcq, ChaosMixed,
                                       NsStat)}
