"""The multi-run benchmark driver (§4.3).

A *run* builds a fresh testbed (fresh simulator, fresh caches — the
strongest form of the paper's cache-defeat protocol), creates the file
set, starts all readers concurrently, and records each reader's
completion time.  "The number of MB read divided by the time required
for the last reader to finish gives the effective throughput."

Each benchmark point repeats the run with distinct seeds and summarises
with mean and standard deviation, as the paper does ("each point
represents the average of at least ten separate runs").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from ..host.testbed import (LocalTestbed, NfsTestbed, TestbedConfig,
                            build_local_testbed, build_nfs_testbed)
from ..obs.session import active_session
from ..sim import Simulator
from ..stats import RunningSummary, Summary
from .fileset import FileSpec, files_for_readers
from .readers import (ReaderResult, resilient_sequential_reader,
                      sequential_reader, stride_reader)

MB = 1024 * 1024


@dataclass
class RunResult:
    """One run: per-reader results plus the §4.2 throughput formula."""

    readers: List[ReaderResult]
    total_bytes: int
    #: Metrics-registry snapshot for this run (``None`` unless the
    #: testbed ran with metrics enabled).
    metrics: Optional[dict] = None
    #: Captured vnode-boundary trace (``None`` unless the testbed ran
    #: with ``capture_trace=True``); a :class:`repro.replay.TraceFile`.
    trace: Optional[object] = None

    @property
    def elapsed(self) -> float:
        return max(reader.finish_time for reader in self.readers)

    @property
    def throughput_mb_s(self) -> float:
        return self.total_bytes / MB / self.elapsed

    def completion_times(self) -> List[float]:
        """Sorted per-reader completion times (Figure 3's raw data)."""
        return sorted(reader.finish_time for reader in self.readers)


@dataclass
class FaultRunResult(RunResult):
    """A faulted run: goodput plus the recovery-machinery counters.

    ``total_bytes`` counts only successfully delivered application
    bytes, so :attr:`throughput_mb_s` *is* goodput; the alias makes the
    intent explicit at call sites.
    """

    retransmits: int = 0
    tcp_segment_retransmits: int = 0
    rpc_timeouts: int = 0
    dupreq_hits: int = 0
    dupreq_evictions: int = 0
    duplicate_executions: int = 0
    verifier_resends: int = 0
    commit_retries: int = 0
    reader_errors: int = 0
    read_attempts: int = 0
    server_crashes: int = 0
    server_dropped: int = 0

    @property
    def goodput_mb_s(self) -> float:
        return self.throughput_mb_s

    @property
    def error_rate(self) -> float:
        """Fraction of application read() calls that returned an error."""
        if self.read_attempts == 0:
            return 0.0
        return self.reader_errors / self.read_attempts

    @property
    def dupreq_hit_rate(self) -> float:
        """Cache answers per retransmitted request (0 if none resent)."""
        if self.retransmits == 0:
            return 0.0
        return self.dupreq_hits / self.retransmits


def _run_readers(testbed, spawn_reader, specs: Sequence[FileSpec]
                 ) -> RunResult:
    sim: Simulator = testbed.sim
    results = [ReaderResult(spec.name) for spec in specs]
    processes = [spawn_reader(testbed, spec, result)
                 for spec, result in zip(specs, results)]
    sim.run()
    for process in processes:
        if process.error is not None:
            raise process.error
        if not process.finished:
            raise RuntimeError(f"reader {process.name} never finished")
    result = RunResult(readers=results,
                       total_bytes=sum(r.bytes_read for r in results))
    capture_file = getattr(testbed, "capture_trace_file", None)
    if capture_file is not None:
        result.trace = capture_file()
    obs = getattr(testbed, "obs", None)
    if obs is not None and obs.enabled:
        if obs.registry.enabled:
            result.metrics = obs.registry.snapshot()
        session = active_session()
        if session is not None:
            session.record(obs)
    return result


# ---------------------------------------------------------------------------
# Local (Figures 1-3)
# ---------------------------------------------------------------------------

def run_local_once(config: TestbedConfig, nreaders: int,
                   scale: float = 1.0) -> RunResult:
    """One local-FS run with ``nreaders`` concurrent sequential readers."""
    testbed = build_local_testbed(config)
    specs = files_for_readers(nreaders, scale)
    inodes = {spec.name: testbed.fs.create_file(spec.name, spec.size)
              for spec in specs}

    def spawn(tb: LocalTestbed, spec: FileSpec, result: ReaderResult):
        def open_fn():
            return tb.fs.open(inodes[spec.name])
            yield  # pragma: no cover - makes open_fn a generator

        def read_fn(handle, offset, nbytes, span=None):
            got = yield from tb.fs.read(handle, offset, nbytes, span=span)
            return got

        return tb.sim.spawn(
            sequential_reader(tb.sim, open_fn, read_fn, spec.size, result,
                              tracer=tb.obs.tracer),
            name=f"reader:{spec.name}")

    return _run_readers(testbed, spawn, specs)


# ---------------------------------------------------------------------------
# NFS (Figures 4-7)
# ---------------------------------------------------------------------------

def run_nfs_once(config: TestbedConfig, nreaders: int,
                 scale: float = 1.0) -> RunResult:
    """One NFS run with ``nreaders`` concurrent sequential readers.

    Readers are distributed round-robin over the testbed's client
    machines (one, unless ``config.num_clients`` says otherwise).
    """
    testbed = build_nfs_testbed(config)
    specs = files_for_readers(nreaders, scale)
    for spec in specs:
        testbed.server.export_file(spec.name, spec.size)
    counter = {"next": 0}

    def spawn(tb: NfsTestbed, spec: FileSpec, result: ReaderResult):
        mount = tb.mount_for(counter["next"])
        counter["next"] += 1

        def open_fn(span=None):
            nfile = yield from mount.open(spec.name, span=span)
            return nfile

        def read_fn(handle, offset, nbytes, span=None):
            got = yield from mount.read(handle, offset, nbytes, span=span)
            return got

        return tb.sim.spawn(
            sequential_reader(tb.sim, open_fn, read_fn, spec.size, result,
                              tracer=tb.obs.tracer),
            name=f"reader:{spec.name}")

    return _run_readers(testbed, spawn, specs)


# ---------------------------------------------------------------------------
# NFS under fault injection (extension X4)
# ---------------------------------------------------------------------------

def run_faulted_once(config: TestbedConfig, nreaders: int,
                     scale: float = 1.0) -> FaultRunResult:
    """One NFS run with error-tolerant readers and fault accounting.

    Works for clean configs too, but the point is ``config.faults``:
    readers use :func:`resilient_sequential_reader` so a soft mount's
    ETIMEDOUT is counted instead of aborting the run, and the result
    carries the retransmission / dupreq / crash counters needed to
    judge graceful degradation.
    """
    testbed = build_nfs_testbed(config)
    specs = files_for_readers(nreaders, scale)
    for spec in specs:
        testbed.server.export_file(spec.name, spec.size)
    counter = {"next": 0}

    def spawn(tb: NfsTestbed, spec: FileSpec, result: ReaderResult):
        mount = tb.mount_for(counter["next"])
        counter["next"] += 1

        def open_fn(span=None):
            nfile = yield from mount.open(spec.name, span=span)
            return nfile

        def read_fn(handle, offset, nbytes, span=None):
            got = yield from mount.read(handle, offset, nbytes, span=span)
            return got

        return tb.sim.spawn(
            resilient_sequential_reader(tb.sim, open_fn, read_fn,
                                        spec.size, result,
                                        tracer=tb.obs.tracer),
            name=f"reader:{spec.name}")

    base = _run_readers(testbed, spawn, specs)
    fold = testbed.counters()
    return FaultRunResult(
        readers=base.readers,
        total_bytes=base.total_bytes,
        metrics=base.metrics,
        retransmits=fold["rpc.client.retransmits"],
        tcp_segment_retransmits=fold["net.tcp.segment_retransmits"],
        rpc_timeouts=fold["rpc.client.timeouts"],
        dupreq_hits=fold["rpc.server.dupreq_hits"],
        dupreq_evictions=fold["rpc.server.dupreq_evictions"],
        duplicate_executions=fold["rpc.server.duplicate_executions"],
        verifier_resends=fold["nfs.client.verifier_resends"],
        commit_retries=fold["nfs.client.commit_retries"],
        reader_errors=sum(r.errors for r in base.readers),
        read_attempts=sum(r.read_attempts for r in base.readers),
        server_crashes=fold["nfs.server.crashes"],
        server_dropped=fold["nfs.server.dropped_requests"])


# ---------------------------------------------------------------------------
# Stride over NFS (Figure 8 / Table 1)
# ---------------------------------------------------------------------------

def run_stride_once(config: TestbedConfig, strides: int,
                    scale: float = 1.0,
                    file_bytes: int = 256 * MB) -> RunResult:
    """One single-reader stride run over NFS (§7's benchmark)."""
    testbed = build_nfs_testbed(config)
    size = int(file_bytes * scale)
    spec = FileSpec(name="stride-file", size=size)
    testbed.server.export_file(spec.name, spec.size)

    def spawn(tb: NfsTestbed, spec_: FileSpec, result: ReaderResult):
        def open_fn(span=None):
            nfile = yield from tb.mount.open(spec_.name, span=span)
            return nfile

        def read_fn(handle, offset, nbytes, span=None):
            got = yield from tb.mount.read(handle, offset, nbytes,
                                           span=span)
            return got

        return tb.sim.spawn(
            stride_reader(tb.sim, open_fn, read_fn, spec_.size, strides,
                          result, tracer=tb.obs.tracer),
            name=f"stride:{spec_.name}")

    return _run_readers(testbed, spawn, [spec])


# ---------------------------------------------------------------------------
# Repetition
# ---------------------------------------------------------------------------

def collect_metric(run_once: Callable[[TestbedConfig], object],
                   config: TestbedConfig, runs: int,
                   jobs: int = 1,
                   metric: str = "throughput_mb_s") -> List[float]:
    """Per-seed values of ``metric`` for ``runs`` repeats, in seed order.

    ``metric`` names an attribute of ``run_once``'s result — a string
    rather than a callable so the repeats stay picklable under
    ``jobs > 1``.  With ``jobs > 1`` the repeats are sharded across
    worker processes by the campaign orchestrator (see
    :mod:`repro.campaign`), which journals every completed repeat and
    transparently re-dispatches a repeat whose worker crashes or hangs.
    Each run is a pure function of (config, seed) — inode numbering,
    RNG streams, and the simulator clock are all per-testbed — and the
    orchestrator folds results in seed order, so the list (and anything
    folded from it in order) is byte-identical to the serial path.

    Parallelism is skipped under an active observability session: the
    workers' obs state would die with them, silently dropping spans.
    """
    if runs < 1:
        raise ValueError("need at least one run")
    if jobs < 1:
        raise ValueError("need at least one job")
    if jobs == 1 or runs == 1 or active_session() is not None:
        seeds = [config.with_seed(config.seed + 1000 * index)
                 for index in range(runs)]
        return [getattr(run_once(seeded), metric) for seeded in seeds]
    from ..campaign import collect_metric_sharded
    return collect_metric_sharded(run_once, config, runs, jobs,
                                  metric=metric)


def collect_throughputs(run_once: Callable[[TestbedConfig], RunResult],
                        config: TestbedConfig, runs: int,
                        jobs: int = 1) -> List[float]:
    """Per-seed throughputs for ``runs`` repeats, in seed order."""
    return collect_metric(run_once, config, runs, jobs,
                          metric="throughput_mb_s")


def repeat(run_once: Callable[[TestbedConfig], RunResult],
           config: TestbedConfig, runs: int = 10,
           jobs: int = 1) -> Summary:
    """Repeat a run with per-run seeds; summarise throughput (MB/s).

    ``jobs`` parallelises the repeats (see :func:`collect_throughputs`);
    the summary is byte-identical to a serial run because the per-seed
    throughputs come back in seed order and are folded into the
    accumulator in that same order.
    """
    acc = RunningSummary()
    for throughput in collect_throughputs(run_once, config, runs, jobs):
        acc.add(throughput)
    return acc.freeze()
