"""Campaign drivers: bench and chaos campaigns end to end.

These functions connect the generic orchestrator to the two verbs
that fan work out, and are the only path either verb takes:

* :func:`run_bench_campaign` — shards seeded benchmark repeats and
  folds them into the ``bench`` record (throughput list, mean, and
  std; byte-identical for any worker count);
* :func:`run_chaos_campaign` — shards the fuzzed schedules of
  ``chaos fuzz``, dedupes failures by their SHA-256 run fingerprint (a
  100k-schedule campaign typically rediscovers the same bug thousands
  of times), and shrinks + bundles one representative per distinct
  fingerprint.

Both return ``(record, outcome)``: ``record`` is the deterministic
fold, ``outcome`` carries the coverage accounting.  Without a journal
path a campaign runs under an ephemeral journal that is deleted once
the campaign returns.
"""

from __future__ import annotations

import functools
import os
import tempfile
from typing import Callable, List, Optional, Tuple

from .cells import CampaignSpec, run_spec_cell
from .orchestrator import (CampaignOptions, CampaignOutcome,
                           run_sharded)


class CampaignIncomplete(RuntimeError):
    """A campaign whose fold is demanded but whose cells are not all done."""

    def __init__(self, outcome: CampaignOutcome, what: str):
        self.outcome = outcome
        coverage = outcome.coverage
        missing = [o for o in outcome.outcomes if o.status != "done"]
        reasons = "; ".join(
            f"cell {o.index}: {o.reason}" for o in missing[:3])
        super().__init__(
            f"{what}: {coverage['done']}/{coverage['cells']} cells done "
            f"({coverage['abandoned']} abandoned, "
            f"{coverage['not_run']} not run) — {reasons}")


def _spec_header(spec: CampaignSpec) -> dict:
    return {"campaign": spec.to_jsonable(),
            "fingerprint": spec.fingerprint()}


def run_spec_campaign(spec: CampaignSpec,
                      journal_path: Optional[str] = None,
                      options: Optional[CampaignOptions] = None,
                      resume: bool = False,
                      progress: Optional[Callable[[dict], None]] = None
                      ) -> CampaignOutcome:
    """Run (or resume) a JSON-spec campaign over its journal.

    ``journal_path=None`` journals into a temporary directory that is
    removed on return: the campaign keeps its crash recovery and
    retries, it just cannot be resumed.
    """
    if journal_path is None:
        with tempfile.TemporaryDirectory(prefix="campaign-") as tmp:
            return run_spec_campaign(
                spec, os.path.join(tmp, "journal.jsonl"),
                options=options, progress=progress)
    runner = functools.partial(run_spec_cell, spec.to_jsonable())
    return run_sharded(runner, spec.cells, journal_path,
                       _spec_header(spec), options=options,
                       resume=resume, progress=progress)


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def bench_spec(runs: int, *, drive: str = "ide", partition: int = 1,
               transport: str = "udp", heuristic: str = "default",
               nfsheur: str = "default", readers: int = 4,
               scale: float = 0.125, seed: int = 0,
               workload: Optional[str] = None, pattern: str = "stat",
               files: int = 10_000, tree_depth: int = 0,
               fanout: int = 32, ops: int = 1_000,
               clients: int = 1) -> CampaignSpec:
    """``clients`` applies to the namespace workload only: the
    streaming benchmark always runs on one client machine."""
    params = {
        "drive": drive, "partition": partition, "transport": transport,
        "server_heuristic": heuristic, "nfsheur": nfsheur,
        "readers": readers, "scale": scale, "seed": seed}
    if workload == "namespace":
        params.update({"workload": "namespace", "pattern": pattern,
                       "files": files, "tree_depth": tree_depth,
                       "fanout": fanout, "ops": ops,
                       "num_clients": clients})
    return CampaignSpec(kind="bench", cells=runs, params=params)


def fold_bench(spec: CampaignSpec,
               outcome: CampaignOutcome) -> Tuple[dict, List[float]]:
    """Fold a complete bench campaign into the `bench` record shape.

    Namespace-workload campaigns fold ``ops_per_s`` instead of
    throughput; everything else about the record shape matches.  The
    CLI adds only ``jobs``, which is how the record was made, not what
    it measured.
    """
    if not outcome.complete:
        raise CampaignIncomplete(outcome, "bench campaign")
    from ..stats import RunningSummary
    params = spec.params
    namespace = params.get("workload") == "namespace"
    metric = "ops_per_s" if namespace else "throughput_mb_s"
    values = [o.result[metric] for o in outcome.outcomes]
    acc = RunningSummary()
    for value in values:
        acc.add(value)
    summary = acc.freeze()
    record = {"verb": "bench", "drive": params["drive"],
              "partition": params["partition"],
              "transport": params["transport"],
              "heuristic": params["server_heuristic"],
              "nfsheur": params["nfsheur"],
              "seed": params["seed"], "runs": spec.cells}
    if namespace:
        record.update({
            "workload": "namespace",
            "pattern": params["pattern"], "files": params["files"],
            "tree_depth": params["tree_depth"],
            "fanout": params["fanout"], "ops": params["ops"],
            "clients": params["num_clients"],
            "ops_per_s": values,
            "mean_ops_s": summary.mean, "std_ops_s": summary.std})
    else:
        record.update({
            "readers": params["readers"], "scale": params["scale"],
            "throughputs_mb_s": values,
            "mean_mb_s": summary.mean, "std_mb_s": summary.std})
    return record, values


def run_bench_campaign(spec: CampaignSpec,
                       journal_path: Optional[str] = None,
                       options: Optional[CampaignOptions] = None,
                       resume: bool = False, progress=None
                       ) -> Tuple[dict, CampaignOutcome]:
    outcome = run_spec_campaign(spec, journal_path, options=options,
                                resume=resume, progress=progress)
    record, _ = fold_bench(spec, outcome)
    return record, outcome


# ---------------------------------------------------------------------------
# chaos
# ---------------------------------------------------------------------------

def chaos_spec(budget: int, *, transport: str = "udp",
               heuristic: str = "default", nfsheur: str = "default",
               clients: int = 2, horizon: float = 20.0,
               max_events: int = 4, recovery: bool = True,
               seed: int = 0, workload: Optional[dict] = None,
               ack_before_intent: bool = False) -> CampaignSpec:
    params = {"transport": transport, "server_heuristic": heuristic,
              "nfsheur": nfsheur, "num_clients": clients,
              "horizon": horizon, "max_events": max_events,
              "mount_verifier_recovery": recovery, "seed": seed}
    if workload is not None:
        params["workload"] = workload
    if ack_before_intent:
        params["meta_ack_before_intent"] = True
    return CampaignSpec(kind="chaos", cells=budget, params=params)


def fold_chaos(spec: CampaignSpec, outcome: CampaignOutcome,
               occurrence_cap: int = 20) -> dict:
    """Fold a chaos campaign: failures deduped by run fingerprint.

    Partial campaigns fold too — coverage accounting says what is
    missing — but only cells that actually ran contribute, so a
    failure can never be silently *invented*; one can only be missed,
    and the accounting says exactly how many cells were not judged.
    ``ok`` is true only when every cell was judged and none failed.
    """
    params = spec.params
    failures: dict = {}
    judged = 0
    for cell in outcome.outcomes:
        if cell.status != "done":
            continue
        judged += 1
        result = cell.result
        if result["ok"]:
            continue
        entry = failures.setdefault(result["fingerprint"], {
            "fingerprint": result["fingerprint"],
            "failed_oracles": list(result["failed_oracles"]),
            "first_index": cell.index,
            "occurrences": 0,
            "indices": []})
        entry["occurrences"] += 1
        if len(entry["indices"]) < occurrence_cap:
            entry["indices"].append(cell.index)
    distinct = [failures[f] for f in sorted(
        failures, key=lambda f: failures[f]["first_index"])]
    return {"verb": "chaos-campaign", "budget": spec.cells,
            "seed": params["seed"], "transport": params["transport"],
            "heuristic": params["server_heuristic"],
            "nfsheur": params["nfsheur"],
            "clients": params["num_clients"],
            "horizon": params["horizon"],
            "max_events": params["max_events"],
            "recovery": params["mount_verifier_recovery"],
            "workload": params.get("workload", {}).get("kind", "write"),
            "ack_before_intent": params.get("meta_ack_before_intent",
                                            False),
            "runs": judged,
            "failing_cells": sum(f["occurrences"] for f in distinct),
            "distinct_failures": distinct,
            "ok": not distinct and judged == spec.cells}


def shrink_and_bundle(spec: CampaignSpec, record: dict,
                      bundle_dir: str, shrink_runs: int = 48,
                      progress=None) -> None:
    """Shrink + bundle one representative per distinct fingerprint.

    Mutates ``record``'s failure entries in place with the shrink and
    bundle details (this part is post-fold reporting, not the fold).
    """
    from ..chaos import (ChaosWorkload, ScheduleFuzzer, run_chaos,
                         shrink, workload_from_jsonable, write_bundle)
    from ..host.testbed import TestbedConfig
    params = spec.params
    workload = workload_from_jsonable(params["workload"]) \
        if "workload" in params else ChaosWorkload()
    fuzzer = ScheduleFuzzer(params["seed"], horizon=params["horizon"],
                            max_events=params["max_events"])
    base = TestbedConfig(
        transport=params["transport"],
        server_heuristic=params["server_heuristic"],
        nfsheur=params["nfsheur"], num_clients=params["num_clients"],
        mount_verifier_recovery=params["mount_verifier_recovery"],
        meta_ack_before_intent=params.get("meta_ack_before_intent",
                                          False),
        seed=params["seed"])
    os.makedirs(bundle_dir, exist_ok=True)
    for entry in record["distinct_failures"]:
        index = entry["first_index"]
        target = entry["failed_oracles"][0]
        config = base.with_seed(base.seed + 1000 * index)
        shrunk = shrink(config, fuzzer.schedule(index), target,
                        workload=workload, max_runs=shrink_runs)
        final = run_chaos(config, shrunk.schedule, workload)
        path = os.path.join(bundle_dir, f"chaos-{index}.json")
        write_bundle(path, config, workload, shrunk.schedule, final)
        entry["shrunk_events"] = [e.to_jsonable()
                                  for e in shrunk.schedule.events]
        entry["shrink_runs"] = shrunk.runs
        entry["bundle"] = path
        if progress is not None:
            progress({"event": "bundle", "cell": index, "bundle": path,
                      "events": len(shrunk.schedule.events)})


def run_chaos_campaign(spec: CampaignSpec,
                       journal_path: Optional[str] = None,
                       options: Optional[CampaignOptions] = None,
                       resume: bool = False, progress=None,
                       bundle_dir: Optional[str] = None,
                       shrink_runs: int = 48
                       ) -> Tuple[dict, CampaignOutcome]:
    outcome = run_spec_campaign(spec, journal_path, options=options,
                                resume=resume, progress=progress)
    record = fold_chaos(spec, outcome)
    if bundle_dir is not None and record["distinct_failures"] \
            and outcome.complete:
        shrink_and_bundle(spec, record, bundle_dir,
                          shrink_runs=shrink_runs, progress=progress)
    return record, outcome
