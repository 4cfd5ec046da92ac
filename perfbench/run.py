#!/usr/bin/env python3
"""Host-time benchmark of the NFS simulator: wall time and work counts.

Run one workload for ``--seconds`` and print its end-to-end metrics
(``--trace 0``), or run a fixed amount of it traced and print the
per-layer metrics (``--trace 1``)::

    python3 perfbench/run.py --workload replay_tcp --seed 1 \\
        --seconds 20 --trace 0
    python3 perfbench/run.py --self-check

Workloads, metrics and units are declared in ``BENCHMARK.json`` at the
repository root; ``perfbench/predictions.json`` says which end-to-end
metric each per-layer metric should move, and where.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exit status: 0 when every check passed,
1 when a correctness check failed (the result line says
``"correct": false``), 2 for bad arguments or a missing program.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import bisect  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
PREDICTIONS_PATH = os.path.join(HERE, "predictions.json")
OUT_DIR = os.path.join(HERE, "out")

#: Set-up runs per timed run; ``setup_s`` reports their median.
SETUP_REPEATS = 3
MAX_SEED = 2 ** 31 - 1
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
#: The one per-layer metric that is neither host time nor exact.
OVERHEAD = "harness.trace_overhead"


class UsageError(Exception):
    """Bad arguments or a missing program: one line, exit 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def parse_args(argv):
    parser = _Parser(prog="perfbench/run.py",
                     description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", default="0")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--self-check", action="store_true",
                        help="check the benchmark itself on small inputs")
    args = parser.parse_args(argv)
    if args.self_check:
        return args
    names = [w["name"] for w in load_spec()["workloads"]]
    if args.workload is None:
        raise UsageError(f"--workload is required "
                         f"(choose from {', '.join(names)})")
    if args.workload not in names:
        raise UsageError(f"unknown workload {args.workload!r} "
                         f"(choose from {', '.join(names)})")
    args.seed = _int_arg("--seed", args.seed, 0, MAX_SEED)
    args.seconds = _int_arg("--seconds", args.seconds, 1, 600)
    args.trace = args.trace == "1"
    return args


def _int_arg(flag: str, text: str, low: int, high: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise UsageError(f"{flag} must be a whole number, "
                         f"not {text!r}") from None
    if not low <= value <= high:
        raise UsageError(f"{flag} must be in {low}..{high}, not {value}")
    return value


def load_spec() -> dict:
    try:
        with open(SPEC_PATH) as handle:
            return json.load(handle)
    except (OSError, ValueError) as error:
        raise UsageError(f"cannot read {SPEC_PATH}: {error}") from None


def load_program():
    """Import the simulator from ``src/`` and the benchmark modules."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import repro  # noqa: F401
    except ImportError as error:
        raise UsageError(f"cannot import the simulator from "
                         f"{os.path.join(ROOT, 'src')}: {error}") from None
    import suite
    return suite


# ----------------------------------------------------------------------
# Timed run (--trace 0)
# ----------------------------------------------------------------------

def p95(samples):
    return statistics.quantiles(samples, n=20, method="inclusive")[18]


def run_digest(*parts: str) -> str:
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


#: Seconds the reference loop takes on the reference host (one vCPU of
#: a 2-vCPU Xeon VM, CPython 3.11); host times are scaled to that speed.
REFERENCE_S = 0.025
#: Share of the measured time spent timing the reference loop.
REFERENCE_SHARE = 0.2
#: Reference-loop samples that set the scale of one unit.
AROUND = 16


def reference_loop() -> float:
    """Seconds one fixed pure-Python loop takes now; it uses no repro code."""
    start = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i % 7
    return time.perf_counter() - start


class HostSpeed:
    """How fast the host runs Python, sampled between timed sections.

    On a shared VM the same work takes up to ~50% longer in one minute
    than in another.  ``charge`` runs the reference loop for
    ``REFERENCE_SHARE`` of every timed section, right after it, so the
    samples follow the host through the run.  A unit's scale is
    ``REFERENCE_S`` over the median of the samples taken nearest to it:
    its host time times that scale is its time at the reference speed,
    which a change to the simulator moves and a slower neighbour on the
    host does not.
    """

    def __init__(self):
        #: (units finished before the samples, the samples), in order.
        self.gaps = [(0, [reference_loop() for _ in range(3)])]
        self._owed = 0.0

    def charge(self, seconds: float, done: int) -> None:
        """Sample after ``seconds`` of timed work; ``done`` units ran."""
        self._owed += REFERENCE_SHARE * seconds
        samples = []
        while self._owed > 0:
            samples.append(reference_loop())
            self._owed -= samples[-1]
        if samples:
            self.gaps.append((done, samples))

    @property
    def samples(self) -> list:
        return [sample for _, gap in self.gaps for sample in gap]

    @property
    def setup_scale(self) -> float:
        """Scale of the imports and set-ups, from the samples after them."""
        return REFERENCE_S / statistics.median(
            [sample for done, gap in self.gaps if done == 0
             for sample in gap])

    def unit_scale(self, index: int) -> float:
        """Scale of unit ``index``, from the nearest samples around it.

        Gaps are taken alternately before and after the unit, nearest
        first, until there are ``AROUND`` samples, so short units and
        long ones are scaled by the same number of samples.
        """
        done = [gap_done for gap_done, _ in self.gaps]
        before = bisect.bisect_right(done, index) - 1
        after = bisect.bisect_left(done, index + 1)
        around = []
        while len(around) < AROUND and (before >= 0
                                        or after < len(self.gaps)):
            if before >= 0:
                around += self.gaps[before][1]
                before -= 1
            if after < len(self.gaps):
                around += self.gaps[after][1]
                after += 1
        return REFERENCE_S / statistics.median(around)


def timed_run(cls, seed: int, seconds: float, import_s: float,
              small: bool = False):
    """End-to-end metrics of one closed-loop run, tracing off."""
    workload = cls(seed, small)
    speed = HostSpeed()
    problems = []
    prepare_s, setup_digests = [], set()
    for _ in range(SETUP_REPEATS):
        gc.collect()
        start = time.perf_counter()
        context = workload.prepare()
        prepare_s.append(time.perf_counter() - start)
        speed.charge(prepare_s[-1], 0)
        setup_digests.add(workload.setup_digest(context))
    if len(setup_digests) != 1:
        problems.append("set-up results differ across repeats")

    walls, units = [], []
    start = time.perf_counter()
    while (len(units) < workload.min_units
           or time.perf_counter() - start < seconds):
        gc.collect()
        began = time.perf_counter()
        unit = workload.run_unit(context, len(units))
        walls.append(time.perf_counter() - began)
        units.append(unit)
        speed.charge(walls[-1], len(units))

    if workload.identical_units:
        if len({unit.digest for unit in units}) != 1:
            problems.append("identical units gave different results")
        digests = [units[0].digest]
    else:
        if workload.run_unit(context, 0).digest != units[0].digest:
            problems.append("unit 0 gave a different result when re-run")
        digests = [unit.digest for unit in units[:workload.min_units]]

    def unit_times(times):
        """ops_per_s, p50 ms and p95 ms of units that took ``times``."""
        if workload.identical_units:
            rate = statistics.median(
                unit.ops / took for unit, took in zip(units, times))
        else:
            rate = sum(unit.ops for unit in units) / sum(times)
        return (rate, statistics.median(times) * 1e3, p95(times) * 1e3)

    scaled = [wall * speed.unit_scale(index)
              for index, wall in enumerate(walls)]
    ops_per_s, p50_ms, p95_ms = unit_times(scaled)
    host = unit_times(walls)
    attempted = sum(unit.ops for unit in units)
    failed = sum(unit.failed for unit in units)
    host_setup_s = import_s + statistics.median(prepare_s)
    metrics = {
        "ops_per_s": ops_per_s,
        "schedule_ms_p50": p50_ms,
        "schedule_ms_p95": p95_ms,
        "setup_s": host_setup_s * speed.setup_scale,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": (attempted - failed) / attempted,
    }
    notes = [
        f"units {len(units)} (the schedule_ms_* samples)",
        f"host speed: {len(speed.samples)} reference loops, median "
        f"{statistics.median(speed.samples)!r} s "
        f"(reference {REFERENCE_S} s)",
        f"unscaled host times: ops_per_s {host[0]!r}, schedule_ms_p50 "
        f"{host[1]!r}, schedule_ms_p95 {host[2]!r}, "
        f"setup_s {host_setup_s!r}",
        f"failed_ratio {failed / attempted!r} ({failed}/{attempted})",
        f"digest units={len(digests)} "
        f"{run_digest(*sorted(setup_digests), *digests)}",
    ]
    return metrics, attempted, failed, problems, notes


# ----------------------------------------------------------------------
# Traced run (--trace 1)
# ----------------------------------------------------------------------

def traced_run(cls, seed: int, small: bool = False, spans_path=None):
    """Per-layer metrics of a fixed amount of the workload.

    The same set-up and ``trace_units`` units run four times: plain
    (the base for the tracing overhead), under the work counter with
    the program's metrics registry on, under the spans, and under the
    profiler.  Each instrument gets a pass of its own so none of them
    inflates another's times.  All four must give the same simulated
    results.
    """
    import layers
    workload = cls(seed, small)

    def once(metrics=False, around_units=contextlib.nullcontext()):
        context = workload.prepare(metrics=metrics)
        with around_units:
            units = [workload.run_unit(context, index)
                     for index in range(workload.trace_units)]
        return workload.setup_digest(context), units

    gc.collect()
    start = time.perf_counter()
    setup_digest, units = once()
    untraced_s = time.perf_counter() - start

    gc.collect()
    counter = layers.WorkCounter()
    counted = once(metrics=True, around_units=counter)

    gc.collect()
    with layers.Spans() as spans:
        spanned = once()

    gc.collect()
    start = time.perf_counter()
    with layers.PackageProfile() as profile:
        profiled = once()
    traced_s = time.perf_counter() - start

    problems = []
    result = (setup_digest, [unit.digest for unit in units])
    for label, (digest_, other) in (("counted", counted),
                                    ("spanned", spanned),
                                    ("profiled", profiled)):
        if (digest_, [unit.digest for unit in other]) != result:
            problems.append(f"the {label} pass changed the results")

    ops = sum(unit.ops for unit in units)
    failed = sum(unit.failed for unit in units)
    span_s = spans.self_s_by_name()
    metrics = {}
    for layer in layers.LAYERS:
        metrics[f"{layer}.self_s"] = profile.self_s[layer]
        metrics[f"{layer}.calls"] = profile.calls[layer]
    metrics.update({
        "other.self_s": profile.self_s[layers.OTHER],
        "harness.self_s": profile.self_s[layers.HARNESS],
        OVERHEAD: traced_s / untraced_s,
        "sim.events_per_op": counter.events / ops,
        "sim.spawns_per_op": counter.spawns / ops,
        "sim.peak_pending": counter.peak_pending,
        "sim.run_s": span_s["Simulator.run"],
        "nfs.export_s": span_s["NfsServer.export_file"],
        "host.build_s": (span_s["build_nfs_testbed"]
                         + span_s["build_local_testbed"]),
        "replay.multiplex_s": span_s["multiplex_trace"],
        "chaos.oracle_failures":
            sum(unit.oracle_failures for unit in counted[1]),
    })
    metrics.update(layers.model_counts(counter.snapshots()))
    if spans_path is not None:
        spans.write(spans_path)
    notes = [
        f"units {len(units)}, untraced {untraced_s!r} s, "
        f"traced {traced_s!r} s",
        f"digest units={len(units)} "
        f"{run_digest(setup_digest, *result[1])}",
    ]
    if spans_path is not None:
        notes.append(f"spans {os.path.relpath(spans_path, ROOT)}")
    return metrics, ops, failed, problems, notes


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------

def with_units(metrics: dict, declared: list) -> dict:
    """Attach each metric's declared unit; the sets must match."""
    names = [entry["name"] for entry in declared]
    if sorted(metrics) != sorted(names):
        missing = sorted(set(names) - set(metrics))
        extra = sorted(set(metrics) - set(names))
        raise RuntimeError(f"emitted metrics differ from BENCHMARK.json: "
                           f"missing {missing}, undeclared {extra}")
    return {entry["name"]: {"value": metrics[entry["name"]],
                            "unit": entry["unit"]}
            for entry in declared}


def run(args, spec, suite, import_s: float) -> int:
    cls = suite.WORKLOADS[args.workload]
    if args.trace:
        spans_path = os.path.join(
            OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
        metrics, attempted, failed, problems, notes = traced_run(
            cls, args.seed, spans_path=spans_path)
        declared = spec["per_layer"]
    else:
        metrics, attempted, failed, problems, notes = timed_run(
            cls, args.seed, args.seconds, import_s)
        declared = spec["end_to_end"]
    shown = with_units(metrics, declared)
    tag = f"{args.workload} seed={args.seed}"
    for note in notes:
        print(f"{tag} {note}")
    for name, entry in shown.items():
        print(f"{tag} {name} = {entry['value']!r} {entry['unit']}")
    for problem in problems:
        print(f"{tag} CHECK FAILED: {problem}")
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": shown}))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# Self-check (--self-check)
# ----------------------------------------------------------------------

def check_spec(spec: dict, workload_names) -> list:
    """Names, units and the prediction table, against each other."""
    problems = []
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(workload_names):
        problems.append(f"BENCHMARK.json workloads {names} differ from "
                        f"the implemented ones {sorted(workload_names)}")
    metrics = spec["end_to_end"] + spec["per_layer"]
    every = names + [m["name"] for m in metrics]
    for name in every:
        if not NAME_RE.match(name):
            problems.append(f"invalid name {name!r}")
    if len(set(every)) != len(every):
        problems.append("a name is used twice")
    for metric in metrics:
        if not UNIT_RE.match(metric["unit"]):
            problems.append(f"{metric['name']}: invalid unit "
                            f"{metric['unit']!r}")
        if metric["better"] not in ("higher", "lower"):
            problems.append(f"{metric['name']}: bad direction")
    with open(PREDICTIONS_PATH) as handle:
        rows = json.load(handle)["rows"]
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    predicted = [name for row in rows for name in row["metrics"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    if sorted(predicted) != sorted(per_layer):
        problems.append("predictions.json does not name every per-layer "
                        "metric exactly once")
    for row in rows:
        if not set(row["moves"]) <= end_to_end:
            problems.append(f"predictions: unknown metric in {row['moves']}")
        if not set(row["on"] + row["flat_on"]) <= set(names):
            problems.append(f"predictions: unknown workload in {row}")
    return problems


def check_metrics(label: str, shown: dict) -> list:
    problems = []
    for name, entry in shown.items():
        value = entry["value"]
        if (not isinstance(value, (int, float)) or isinstance(value, bool)
                or not math.isfinite(value)):
            problems.append(f"{label}: {name} is not a finite number")
    return problems


def self_check(spec: dict, suite) -> int:
    """Check the benchmark on small inputs; 0 if every check holds."""
    problems = check_spec(spec, list(suite.WORKLOADS))
    #: Everything but host times repeats exactly: counts, per-op
    #: counts and simulated model values.
    exact_names = [m["name"] for m in spec["per_layer"]
                   if m["unit"] != "s" and m["name"] != OVERHEAD]
    for bad in (["--workload", "nope"],
                ["--workload", "ns_stat", "--seed", "-1"],
                ["--workload", "ns_stat", "--seed", "x"]):
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), \
                contextlib.redirect_stdout(io.StringIO()):
            status = main(bad)
        if status == 0 or stderr.getvalue().count("\n") != 1:
            problems.append(f"{bad} did not fail with a one-line "
                            f"diagnostic")
    for name, cls in suite.WORKLOADS.items():
        metrics, _ops, failed, found, _notes = timed_run(
            cls, 1, 0.5, 0.0, small=True)
        found += [f"{failed} failed ops"] if failed else []
        problems += [f"{name}: {problem}" for problem in found]
        try:
            problems += check_metrics(
                name, with_units(metrics, spec["end_to_end"]))
        except RuntimeError as error:
            problems.append(f"{name}: {error}")
        runs = []
        for _ in range(2):
            metrics, _ops, failed, found, notes = traced_run(
                cls, 1, small=True)
            found += [f"{failed} failed ops"] if failed else []
            problems += [f"{name} traced: {problem}" for problem in found]
            try:
                problems += check_metrics(
                    name, with_units(metrics, spec["per_layer"]))
            except RuntimeError as error:
                problems.append(f"{name} traced: {error}")
            exact = {key: metrics[key] for key in exact_names}
            runs.append((exact, notes[-1]))
        if runs[0] != runs[1]:
            changed = sorted(key for key in runs[0][0]
                             if runs[0][0][key] != runs[1][0].get(key))
            problems.append(f"{name}: exact counts or digest differ "
                            f"between back-to-back runs: {changed}")
        print(f"self-check {name}: "
              f"{len(runs[0][0])} exact counts compared")
    for problem in problems:
        print(f"self-check FAILED: {problem}")
    print("self-check: " + ("ok" if not problems else
                            f"{len(problems)} problem(s)"))
    return 0 if not problems else 1


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
        spec = load_spec()
        suite = load_program()
    except UsageError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _START
    if args.self_check:
        return self_check(spec, suite)
    return run(args, spec, suite, import_s)


if __name__ == "__main__":
    sys.exit(main())
