"""The bench-history store and the noise-aware regression gate.

The acceptance pair from the issue: a synthetic 20 % throughput drop
must fail the comparator (and the CLI must exit non-zero), while
jitter within the repeats' own spread must pass.  Around that, the
store's mechanics: append/load round-trip, configuration keying, and
the spread arithmetic the threshold is built from.
"""

import json

import pytest

from repro.cli import main
from repro.diagnose import (append_history, bench_key,
                            compare_against_history, gate_latest,
                            load_history, relative_spread)


def record(mean, throughputs=None, readers=4, transport="udp"):
    return {"verb": "bench", "drive": "ide", "partition": 1,
            "transport": transport, "heuristic": "default",
            "nfsheur": "default", "readers": readers, "scale": 0.125,
            "seed": 0, "runs": len(throughputs or ()) or 1,
            "jobs": 1, "throughputs_mb_s": throughputs or [mean],
            "mean_mb_s": mean, "std_mb_s": 0.0}


class TestStore:
    def test_append_load_round_trip(self, tmp_path):
        path = str(tmp_path / "history.jsonl")
        first, second = record(10.0), record(9.8)
        append_history(path, first)
        append_history(path, second)
        assert load_history(path) == [first, second]

    def test_append_creates_parent_directories(self, tmp_path):
        path = str(tmp_path / "benchmarks" / "results" / "h.jsonl")
        append_history(path, record(10.0))
        assert load_history(path) == [record(10.0)]

    def test_blank_lines_tolerated_bad_lines_rejected(self, tmp_path):
        path = tmp_path / "history.jsonl"
        path.write_text(json.dumps(record(10.0)) + "\n\n")
        assert len(load_history(str(path))) == 1
        path.write_text("not json\n")
        with pytest.raises(ValueError):
            load_history(str(path))

    def test_key_separates_configurations(self):
        assert bench_key(record(10.0)) == bench_key(record(8.0))
        assert bench_key(record(10.0)) != \
            bench_key(record(10.0, readers=8))
        assert bench_key(record(10.0)) != \
            bench_key(record(10.0, transport="tcp"))

    def test_relative_spread(self):
        assert relative_spread(record(10.0, [9.0, 10.0, 11.0])) == \
            pytest.approx(0.2)
        assert relative_spread(record(10.0, [10.0])) == 0.0
        assert relative_spread({}) == 0.0


class TestComparator:
    def test_twenty_percent_drop_fails(self):
        gate = compare_against_history(record(8.0), [record(10.0)])
        assert not gate.ok
        assert gate.rel_delta == pytest.approx(0.2)
        assert "regressed" in gate.reason

    def test_jitter_within_floor_passes(self):
        gate = compare_against_history(record(9.7), [record(10.0)])
        assert gate.ok
        assert "within noise" in gate.reason

    def test_noisy_repeats_widen_the_threshold(self):
        # The baseline's own repeats scatter 15%: an 8% drop is not a
        # verdict this data can support.
        noisy = record(10.0, [9.25, 10.0, 10.75])
        gate = compare_against_history(record(9.2), [noisy])
        assert gate.ok
        assert gate.threshold == pytest.approx(0.15)
        # The same drop against tight repeats fails.
        tight = record(10.0, [9.99, 10.0, 10.01])
        assert not compare_against_history(record(9.2), [tight]).ok

    def test_gates_against_the_latest_matching_record(self):
        history = [record(20.0), record(10.0, readers=8), record(10.0)]
        gate = compare_against_history(record(9.9), history)
        assert gate.ok and gate.baseline_mean == 10.0

    def test_no_baseline_passes(self):
        gate = compare_against_history(record(10.0, readers=16),
                                       [record(10.0)])
        assert gate.ok and "nothing to gate" in gate.reason

    def test_improvement_passes_and_says_so(self):
        gate = compare_against_history(record(13.0), [record(10.0)])
        assert gate.ok and "improved" in gate.reason

    def test_gate_latest_uses_newest_record(self):
        assert not gate_latest([record(10.0), record(8.0)]).ok
        assert gate_latest([record(10.0), record(9.9)]).ok
        assert gate_latest([]).ok


class TestCliGate:
    def write_history(self, tmp_path, *records):
        path = str(tmp_path / "history.jsonl")
        for entry in records:
            append_history(path, entry)
        return path

    def test_regression_in_history_exits_nonzero(self, tmp_path, capsys):
        path = self.write_history(tmp_path, record(10.0), record(8.0))
        assert main(["diagnose", "--against", path]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_within_noise_history_exits_zero(self, tmp_path, capsys):
        path = self.write_history(tmp_path, record(10.0), record(9.9))
        assert main(["diagnose", "--against", path]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_bench_record_gated_against_history(self, tmp_path, capsys):
        path = self.write_history(tmp_path, record(10.0))
        bench = tmp_path / "bench.json"
        bench.write_text(json.dumps(record(8.0)))
        code = main(["diagnose", "--bench", str(bench),
                     "--against", path, "--json"])
        assert code == 1
        gate = json.loads(capsys.readouterr().out)["gate"]
        assert gate["ok"] is False
        assert gate["rel_delta"] == pytest.approx(0.2)

    def test_floor_flag_loosens_the_gate(self, tmp_path, capsys):
        path = self.write_history(tmp_path, record(10.0), record(8.0))
        assert main(["diagnose", "--against", path,
                     "--floor", "0.25"]) == 0
        capsys.readouterr()

    def test_usage_errors_exit_two(self, tmp_path, capsys):
        assert main(["diagnose"]) == 2
        bench = tmp_path / "bench.json"
        bench.write_text(json.dumps(record(8.0)))
        assert main(["diagnose", "--bench", str(bench)]) == 2
        assert main(["diagnose", "--against",
                     str(tmp_path / "absent.jsonl")]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("flag,content,field", [
        ("--trace", "[]", "got list"),
        ("--trace", "{}", "'traceEvents'"),
        ("--trace", '{"traceEvents": [{"ph": "X", "name": "read",'
                    ' "cat": "nfs"}]}', "args.span_id"),
        ("--metrics", "[]", "got list"),
        ("--metrics", '"snapshot"', "got str"),
    ], ids=["trace-list", "trace-empty-object", "trace-x-without-args",
            "metrics-list", "metrics-string"])
    def test_malformed_input_is_one_line_exit_two(self, tmp_path, capsys,
                                                  flag, content, field):
        path = tmp_path / "input.json"
        path.write_text(content)
        assert main(["diagnose", flag, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1, err
        assert err.startswith(f"diagnose: {path}: "), err
        assert field in err, err


class TestBenchHistoryFlags:
    def test_out_writes_the_printed_record(self, tmp_path, capsys):
        out = tmp_path / "BENCH_smoke.json"
        code = main(["bench", "--readers", "1", "--runs", "1",
                     "--scale", "0.02", "--out", str(out)])
        assert code == 0
        printed = json.loads(capsys.readouterr().out)
        assert json.loads(out.read_text()) == printed
        assert printed["mean_mb_s"] > 0

    def test_history_flag_appends_records(self, tmp_path, capsys):
        path = str(tmp_path / "history.jsonl")
        args = ["bench", "--readers", "1", "--runs", "1",
                "--scale", "0.02", "--json", "--history", path]
        assert main(args) == 0
        assert main(args) == 0
        capsys.readouterr()
        history = load_history(path)
        assert len(history) == 2
        assert bench_key(history[0]) == bench_key(history[1])
        # Identical seeds reproduce identical throughput: the gate on
        # this store passes.
        assert gate_latest(history).ok

    def test_default_history_path_is_under_benchmarks(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "--readers", "1", "--runs", "1",
                     "--scale", "0.02", "--json", "--history"]) == 0
        capsys.readouterr()
        assert (tmp_path / "benchmarks" / "results" /
                "history.jsonl").exists()
