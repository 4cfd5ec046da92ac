"""Golden determinism battery: rerun identity plus pinned digests.

Every artifact the simulator produces is a pure function of its
inputs: the event kernel dequeues in strict ``(when, seq)`` order, so
testbed counters, chaos fingerprints, replay summaries and campaign
folds come out the same byte for byte on every run.  This battery
pins that contract over the full testbed matrix

    transport (udp, tcp) × mount (soft, hard)
        × fault schedule (clean, fuzzed) × chaos seed

plus the metadata and mixed chaos cells, replay capture and summary,
the namespace workload family, span traces of a lossy NFS run and a
forked bench campaign fold.

Each cell runs twice; the two canonical-JSON renderings must be
identical bytes, and their SHA-256 must equal the cell's entry in
``tests/data/golden-digests.json``.  A rerun mismatch means hidden
nondeterminism (hash-ordered iteration, a wall-clock read, a shared
RNG).  A golden mismatch means a change moved simulated behaviour,
for instance the order of events that share a timestamp (DESIGN.md
§12): the failure names the cell and prints both digests.  Explain
the change before editing the golden file; never re-baseline
silently.
"""

import dataclasses
import functools
import hashlib
import json
import os
import tempfile
from typing import Callable, Dict

import pytest

from repro.chaos import (ChaosSchedule, MetadataWorkload, MixedWorkload,
                         ScheduleFuzzer, run_chaos)
from repro.host.testbed import TestbedConfig

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data",
                           "golden-digests.json")


def canonical(jsonable) -> bytes:
    """The byte string we compare: canonical JSON, sorted keys."""
    return json.dumps(jsonable, sort_keys=True,
                      separators=(",", ":")).encode()


# ---------------------------------------------------------------------------
# Cells: each is a zero-argument callable returning the artifact bytes.


def run_matrix_cell(transport: str, soft: bool, schedule: ChaosSchedule,
                    seed: int) -> bytes:
    config = TestbedConfig(transport=transport, mount_soft=soft,
                           num_clients=2, seed=seed)
    return canonical(run_chaos(config, schedule).to_jsonable())


def run_workload_cell(workload_type, schedule: ChaosSchedule) -> bytes:
    config = TestbedConfig(num_clients=2, seed=7)
    result = run_chaos(config, schedule, workload_type())
    return canonical(result.to_jsonable())


def capture_trace():
    from repro.replay import capture_nfs_run
    return capture_nfs_run(TestbedConfig(num_clients=2), nreaders=2,
                           scale=0.125)


def run_capture_cell() -> bytes:
    return canonical([dataclasses.asdict(record)
                      for record in capture_trace().records])


@functools.lru_cache(maxsize=None)
def captured_trace():
    """One capture shared by every replay of the summary cell."""
    return capture_trace()


def run_replay_cell() -> bytes:
    from repro.replay import replay_trace
    target = dataclasses.replace(TestbedConfig(), transport="tcp",
                                 server_heuristic="cursor",
                                 nfsheur="improved")
    result = replay_trace(captured_trace(), target, clients=2)
    return canonical(result.summary())


def run_namespace_cell(pattern: str) -> bytes:
    from repro.workloads import (NamespaceTreeSpec, NamespaceWorkload,
                                 run_namespace_once)
    tree = NamespaceTreeSpec(files=300, depth=1, fanout=4)
    workload = NamespaceWorkload(pattern=pattern, ops=40)
    config = TestbedConfig(num_clients=2, seed=7)
    return canonical(run_namespace_once(config, tree, workload).summary())


def run_trace_cell(transport: str) -> bytes:
    """Span trace of a lossy two-reader NFS run.

    The chaos artifacts above are counters and oracle verdicts, which
    several matrix cells share; a span trace pins the simulated time of
    every request, so a change in same-timestamp event order shows here.
    """
    from repro.bench import run_nfs_once
    from repro.obs import observe
    config = TestbedConfig(transport=transport, loss_rate=0.02, seed=3)
    with observe(trace=True) as session:
        run_nfs_once(config, 2, scale=0.05)
    return session.trace_json().encode()


def run_campaign_cell() -> bytes:
    """A bench campaign on two forked workers: fold and folded record."""
    from repro.campaign import (CampaignOptions, fold_bench, fold_json,
                                run_spec_campaign)
    from repro.campaign.drivers import bench_spec
    spec = bench_spec(2, readers=2, scale=0.03, seed=0)
    with tempfile.TemporaryDirectory() as scratch:
        outcome = run_spec_campaign(
            spec, os.path.join(scratch, "journal.jsonl"),
            options=CampaignOptions(workers=2, retry_backoff=0.01))
    record, _throughputs = fold_bench(spec, outcome)
    return canonical({"fold": fold_json(outcome), "record": record})


# The full matrix: 2 transports × 2 mount semantics × 3 schedules
# (clean, and one fuzzed schedule per chaos seed).
SCHEDULES = [
    ("clean", ChaosSchedule()),
    ("fuzz-s0", ScheduleFuzzer(0).schedule(0)),
    ("fuzz-s7", ScheduleFuzzer(7).schedule(1)),
]
MATRIX = [
    (transport, soft, schedule_id, schedule, seed)
    for transport in ("udp", "tcp")
    for soft in (False, True)
    for (schedule_id, schedule), seed in zip(SCHEDULES, (7, 0, 7))
]
MATRIX_IDS = [f"{t}-{'soft' if s else 'hard'}-{sid}-seed{seed}"
              for t, s, sid, _, seed in MATRIX]
NAMESPACE_PATTERNS = ("stat", "list", "edit")

CELLS: Dict[str, Callable[[], bytes]] = {}
for (transport, soft, _sid, schedule, seed), matrix_id in zip(MATRIX,
                                                             MATRIX_IDS):
    CELLS[f"chaos/{matrix_id}"] = functools.partial(
        run_matrix_cell, transport, soft, schedule, seed)
for schedule_id, schedule in SCHEDULES:
    CELLS[f"metadata/{schedule_id}"] = functools.partial(
        run_workload_cell, MetadataWorkload, schedule)
CELLS["mixed/fuzz-s7"] = functools.partial(
    run_workload_cell, MixedWorkload, SCHEDULES[2][1])
CELLS["replay/capture"] = run_capture_cell
CELLS["replay/summary"] = run_replay_cell
for pattern in NAMESPACE_PATTERNS:
    CELLS[f"namespace/{pattern}"] = functools.partial(run_namespace_cell,
                                                      pattern)
for transport in ("udp", "tcp"):
    CELLS[f"trace/{transport}"] = functools.partial(run_trace_cell,
                                                    transport)
CELLS["campaign/bench-fold"] = run_campaign_cell


@functools.lru_cache(maxsize=None)
def golden() -> Dict[str, str]:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)["cells"]


def check_cell(cell: str) -> None:
    """Run ``cell`` twice; require identical bytes and the golden digest."""
    first = CELLS[cell]()
    second = CELLS[cell]()
    assert first == second, f"{cell}: two runs of the same inputs differ"
    digest = hashlib.sha256(first).hexdigest()
    expected = golden().get(cell)
    assert digest == expected, (
        f"{cell}: golden digest mismatch: golden {expected}, now {digest}")


def test_golden_file_pins_every_cell():
    assert sorted(golden()) == sorted(CELLS)


class TestTestbedMatrix:
    @pytest.mark.parametrize("matrix_id", MATRIX_IDS, ids=MATRIX_IDS)
    def test_chaos_artifacts_byte_identical(self, matrix_id):
        check_cell(f"chaos/{matrix_id}")

    def test_matrix_cells_are_not_trivially_equal(self):
        # Sanity on the battery itself: distinct seeds produce
        # distinct artifacts, so byte-equality above is meaningful.
        a = run_matrix_cell("udp", False, SCHEDULES[0][1], 7)
        b = run_matrix_cell("udp", False, SCHEDULES[0][1], 0)
        assert a != b


class TestMetadataChaosIdentity:
    """The metadata chaos cells: intent-log commits, crash recovery with
    fsck, and the metadata oracles all ride the event kernel, so their
    full artifact — counters, oracle verdicts, fingerprint payload —
    holds the same contract."""

    @pytest.mark.parametrize("schedule_id", [sid for sid, _ in SCHEDULES])
    def test_metadata_artifacts_byte_identical(self, schedule_id):
        check_cell(f"metadata/{schedule_id}")

    def test_mixed_artifacts_byte_identical(self):
        check_cell("mixed/fuzz-s7")


class TestReplayIdentity:
    def test_capture_is_kernel_independent(self):
        check_cell("replay/capture")

    def test_replay_summary_byte_identical(self):
        check_cell("replay/summary")


class TestNamespaceWorkloadIdentity:
    @pytest.mark.parametrize("pattern", NAMESPACE_PATTERNS)
    def test_namespace_summary_byte_identical(self, pattern):
        """The full run summary — op counts, every mount and server
        counter — of each metadata workload pattern."""
        check_cell(f"namespace/{pattern}")


class TestSpanTraceIdentity:
    @pytest.mark.parametrize("transport", ["udp", "tcp"])
    def test_span_trace_byte_identical(self, transport):
        check_cell(f"trace/{transport}")


class TestCampaignFoldIdentity:
    def test_bench_campaign_fold_byte_identical(self):
        # Workers fork, so each cell runs in a child process.
        check_cell("campaign/bench-fold")
