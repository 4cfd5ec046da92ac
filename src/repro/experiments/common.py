"""Shared sweep helpers for the experiment modules."""

from __future__ import annotations

import functools
from typing import Callable, Dict, List, Sequence, Tuple

from contextlib import contextmanager

from ..bench.fileset import READER_COUNTS
from ..bench.runner import (RunResult, collect_throughputs,
                            run_local_once, run_nfs_once,
                            run_stride_once)
from ..host.testbed import TestbedConfig
from ..obs.session import active_session
from ..stats import RunningSummary, SeriesSet


@contextmanager
def _sweep_context(label: str, **extra):
    """Stamp the active obs session (if any) with the sweep point.

    Metric snapshots recorded inside the block carry a ``_context``
    entry naming the series and sweep position, so the trap-diagnosis
    detectors can group repeats of one configuration instead of
    comparing apples (2 readers) to oranges (32 readers).
    """
    session = active_session()
    if session is None:
        yield
        return
    previous = session.run_context
    session.run_context = {"series": label, **extra}
    try:
        yield
    finally:
        session.run_context = previous


def sweep_readers(title: str,
                  configs: Sequence[Tuple[str, TestbedConfig]],
                  run_once: Callable[..., RunResult],
                  reader_counts: Sequence[int] = READER_COUNTS,
                  scale: float = 0.125, runs: int = 3,
                  seed: int = 0) -> SeriesSet:
    """Throughput vs concurrent readers, one series per configuration.

    Run ``i`` of the point at ``n`` readers uses seed
    ``seed + 1000*i + n``.
    """
    figure = SeriesSet(title=title, xlabel="readers")
    for label, config in configs:
        series = figure.new_series(label)
        for nreaders in reader_counts:
            point = functools.partial(run_once, nreaders=nreaders,
                                      scale=scale)
            acc = RunningSummary()
            with _sweep_context(label, readers=nreaders):
                throughputs = collect_throughputs(
                    point, config.with_seed(seed + nreaders), runs)
            for throughput in throughputs:
                acc.add(throughput)
            series.add(nreaders, acc.freeze())
    return figure


def sweep_strides(title: str,
                  configs: Sequence[Tuple[str, TestbedConfig]],
                  strides: Sequence[int] = (2, 4, 8),
                  scale: float = 0.125, runs: int = 3,
                  seed: int = 0) -> SeriesSet:
    """Stride-read throughput vs stride count (§7's benchmark)."""
    figure = SeriesSet(title=title, xlabel="strides")
    for label, config in configs:
        series = figure.new_series(label)
        for stride_count in strides:
            point = functools.partial(run_stride_once,
                                      strides=stride_count, scale=scale)
            acc = RunningSummary()
            with _sweep_context(label, strides=stride_count):
                throughputs = collect_throughputs(
                    point, config.with_seed(seed + stride_count), runs)
            for throughput in throughputs:
                acc.add(throughput)
            series.add(stride_count, acc.freeze())
    return figure


def completion_distribution(title: str,
                            configs: Sequence[Tuple[str, TestbedConfig]],
                            nreaders: int = 8,
                            scale: float = 0.125, runs: int = 3,
                            seed: int = 0) -> SeriesSet:
    """Mean time for the k-th of ``nreaders`` processes to finish.

    This is Figure 3: per-process completion times under different disk
    schedulers, eight concurrent readers of 32 MB each.
    """
    figure = SeriesSet(title=title, xlabel="processes completed",
                       ylabel="Time to completion (s)")
    for label, config in configs:
        accumulators = [RunningSummary() for _ in range(nreaders)]
        with _sweep_context(label, readers=nreaders):
            for run_index in range(runs):
                run_config = config.with_seed(seed + 1000 * run_index)
                result = run_local_once(run_config, nreaders, scale=scale)
                for position, finish in \
                        enumerate(result.completion_times()):
                    accumulators[position].add(finish)
        series = figure.new_series(label)
        for position, acc in enumerate(accumulators):
            series.add(position + 1, acc.freeze())
    return figure
