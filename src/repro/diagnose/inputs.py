"""Loading and shaping the diagnosis inputs.

The engine consumes the artifacts the observability layer already
produces — a Chrome ``trace_event`` span export (``--trace``), the
metrics JSON written by ``--metrics-out`` (per-run snapshots plus the
merged view), and optionally a ``BENCH_*.json`` record — and reshapes
them into one :class:`DiagnosisInputs` that attribution and every
detector share.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..obs.export import loads_trace
from ..obs.metrics import merge_snapshots
from ..obs.provenance import ProvRecord, loads_provenance
from ..obs.span import Span


@dataclass
class DiagnosisInputs:
    """Everything the attribution pass and the detectors can look at."""

    #: Span streams, one list per simulated run (each run restarts the
    #: simulation clock, so nesting is only meaningful within a run).
    runs: List[List[Span]] = field(default_factory=list)
    #: Per-run metric snapshots, possibly stamped with a ``_context``
    #: dict naming the sweep point that produced them.
    snapshots: List[dict] = field(default_factory=list)
    #: The merged (summed/averaged) view of ``snapshots``.
    merged: dict = field(default_factory=dict)
    #: A ``bench --json`` record, when diagnosing a benchmark point.
    bench: Optional[dict] = None
    #: The causal provenance graph (``--provenance`` JSONL), when the
    #: run recorded one.  Record node ids name span ids in ``runs``.
    provenance: List[ProvRecord] = field(default_factory=list)

    @property
    def spans(self) -> List[Span]:
        return [span for run in self.runs for span in run]

    def gauge(self, snapshot: dict, name: str,
              default: float = 0.0) -> float:
        return snapshot.get("gauges", {}).get(name, default)

    def contexts(self) -> List[Optional[dict]]:
        return [snap.get("_context") for snap in self.snapshots]


def split_runs(spans: List[Span]) -> List[List[Span]]:
    """Split a session-wide span stream back into per-run streams.

    Sessions stamp every span with its run index (``args["run"]``);
    exports preserve it, so re-imported traces split losslessly.  A
    stream with no run stamps is treated as a single run.
    """
    by_run: Dict[int, List[Span]] = {}
    for span in spans:
        run = span.args.get("run", 0)
        by_run.setdefault(run if isinstance(run, int) else 0,
                          []).append(span)
    return [by_run[run] for run in sorted(by_run)]


def load_trace_file(path: str) -> List[List[Span]]:
    """Read a ``--trace`` export back into per-run span streams."""
    with open(path) as handle:
        text = handle.read()
    try:
        spans = loads_trace(text)
    except ValueError as error:
        raise ValueError(f"{path}: {error}") from None
    return split_runs(spans)


def load_metrics_file(path: str) -> Tuple[List[dict], dict]:
    """Read a ``--metrics-out`` file (or a bare snapshot dict).

    Accepts either the session format ``{"snapshots": [...],
    "merged": {...}}`` or a single registry snapshot, for ad-hoc use.
    A payload of the wrong shape raises ``ValueError`` naming the file
    and the ill-typed field.
    """
    with open(path) as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: expected a metrics JSON object, got "
                         f"{type(payload).__name__}")
    if "snapshots" not in payload:
        return [payload], merge_snapshots([payload])
    snapshots = payload["snapshots"]
    if not isinstance(snapshots, list) or not all(
            isinstance(snap, dict) for snap in snapshots):
        raise ValueError(f"{path}: 'snapshots' must be a list of objects")
    merged = payload.get("merged") or merge_snapshots(snapshots)
    if not isinstance(merged, dict):
        raise ValueError(f"{path}: 'merged' must be an object")
    return snapshots, merged


def load_provenance_file(path: str) -> List[ProvRecord]:
    """Read a ``--provenance`` JSONL export back into records."""
    with open(path) as handle:
        return loads_provenance(handle.read())


def load_bench_file(path: str) -> dict:
    with open(path) as handle:
        record = json.load(handle)
    if not isinstance(record, dict):
        raise ValueError(f"{path}: expected a bench JSON object")
    return record


def build_inputs(trace_path: Optional[str] = None,
                 metrics_path: Optional[str] = None,
                 bench_path: Optional[str] = None,
                 provenance_path: Optional[str] = None) -> DiagnosisInputs:
    inputs = DiagnosisInputs()
    if trace_path is not None:
        inputs.runs = load_trace_file(trace_path)
    if metrics_path is not None:
        inputs.snapshots, inputs.merged = load_metrics_file(metrics_path)
    if bench_path is not None:
        inputs.bench = load_bench_file(bench_path)
    if provenance_path is not None:
        inputs.provenance = load_provenance_file(provenance_path)
    return inputs
