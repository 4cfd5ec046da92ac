"""Tests for the CLI and the ASCII plotter."""

import pytest

from repro.cli import build_parser, main
from repro.stats import Series, SeriesSet, render_plot, summarize


def make_figure():
    figure = SeriesSet("Test figure", xlabel="readers")
    a = figure.new_series("alpha")
    for x, value in ((1, 10.0), (2, 20.0), (4, 15.0)):
        a.add(x, summarize([value]))
    b = figure.new_series("beta")
    for x, value in ((1, 5.0), (2, 5.0), (4, 5.0)):
        b.add(x, summarize([value]))
    return figure


class TestPlot:
    def test_contains_title_axis_and_legend(self):
        text = render_plot(make_figure())
        assert "Test figure" in text
        assert "readers" in text
        assert "o alpha" in text
        assert "x beta" in text

    def test_markers_plotted(self):
        text = render_plot(make_figure())
        assert text.count("o") >= 3 + 1   # points + legend
        assert text.count("x") >= 3 + 1

    def test_x_ticks_present(self):
        text = render_plot(make_figure())
        assert " 1" in text and "4" in text

    def test_y_scale_labels(self):
        text = render_plot(make_figure())
        assert "21.0" in text     # 20 * 1.05
        assert "0.0" in text

    def test_tiny_area_rejected(self):
        with pytest.raises(ValueError):
            render_plot(make_figure(), width=4, height=2)

    def test_empty_figure_rejected(self):
        with pytest.raises(ValueError):
            render_plot(SeriesSet("empty"))

    def test_custom_y_range(self):
        text = render_plot(make_figure(), y_max=100.0)
        assert "100.0" in text
        with pytest.raises(ValueError):
            render_plot(make_figure(), y_min=10.0, y_max=5.0)


class TestCli:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["fig1"])
        assert args.experiment == "fig1"
        assert args.scale == 0.125
        assert args.runs == 3
        assert not args.plot

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig1" in out and "table1" in out and "xlossy" in out

    def test_unknown_experiment_fails_cleanly(self, capsys):
        assert main(["fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_small_experiment(self, capsys):
        code = main(["fig8", "--runs", "1", "--scale", "0.03125",
                     "--no-std", "--plot"])
        assert code == 0
        out = capsys.readouterr().out
        assert "stride" in out.lower()
        assert "paper claim" in out
        assert "|" in out            # the plot was drawn


class TestFanOutFlags:
    """Bad fan-out flags are one argparse line and exit 2."""

    @pytest.mark.parametrize("argv", [
        ["bench", "--runs", "0"],
        ["bench", "--jobs", "0"],
        ["bench", "--jobs", "-2"],
        ["bench", "--readers", "0"],
        ["bench", "--files", "0"],
        ["bench", "--ops", "0"],
        ["bench", "--clients", "0"],
        ["bench", "--max-attempts", "0"],
        ["bench", "--cell-timeout", "0"],
        ["bench", "--partition", "7"],
        ["bench", "--pattern", "nope"],
        ["bench", "--runs", "two"],
        ["chaos", "fuzz", "--budget", "0"],
        ["chaos", "fuzz", "--jobs", "0"],
        ["chaos", "fuzz", "--clients", "0"],
        ["chaos", "fuzz", "--cell-timeout", "0", "--jobs", "2"],
        ["chaos", "fuzz", "--cell-timeout", "nan"],
        ["chaos", "fuzz", "--max-attempts", "0"],
        ["fig1", "--runs", "0"],
    ])
    def test_rejected_at_parse_time(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.strip().splitlines()[-1].startswith(
            ("nfstricks", "usage"))
        assert "error: argument" in err

    def test_campaign_is_not_a_verb(self, capsys):
        assert main(["campaign"]) == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestBenchVerb:
    def test_json_output_parses(self, capsys):
        import json
        code = main(["bench", "--readers", "1", "--runs", "2",
                     "--scale", "0.02", "--json"])
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert record["verb"] == "bench"
        assert record["runs"] == 2
        assert len(record["throughputs_mb_s"]) == 2
        assert record["mean_mb_s"] > 0

    def test_jobs_do_not_change_the_output(self, capsys):
        # Any --jobs runs the same campaign on more or fewer workers:
        # stdout is identical apart from the echoed worker count.
        for args in (["bench", "--readers", "1", "--runs", "3",
                      "--scale", "0.02", "--json"],
                     ["bench", "--workload", "namespace", "--files",
                      "120", "--ops", "12", "--clients", "2", "--runs",
                      "3", "--json"]):
            assert main(args + ["--jobs", "1"]) == 0
            one = capsys.readouterr().out
            assert main(args + ["--jobs", "3"]) == 0
            three = capsys.readouterr().out
            assert '"jobs": 1' in one and '"jobs": 3' in three
            assert three.replace('"jobs": 3', '"jobs": 1') == one

    def test_prose_output(self, capsys):
        assert main(["bench", "--readers", "1", "--runs", "1",
                     "--scale", "0.02"]) == 0
        assert "MB/s" in capsys.readouterr().out


class TestReplayVerb:
    def test_capture_then_replay_one_invocation(self, tmp_path, capsys):
        """A UDP/default capture replays against TCP/cursors/improved."""
        import json
        trace_path = str(tmp_path / "t.jsonl")
        code = main(["replay", "--capture", trace_path,
                     "--replay", trace_path,
                     "--bench-scale", "0.02", "--readers", "2",
                     "--target-transport", "tcp",
                     "--target-heuristic", "cursor",
                     "--target-nfsheur", "improved",
                     "--clients", "3", "--json"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["clients"] == 3
        assert summary["ops_completed"] > 0
        assert summary["errors"] == 0

    def test_replay_is_deterministic_across_invocations(
            self, tmp_path, capsys):
        trace_path = str(tmp_path / "t.jsonl")
        assert main(["replay", "--capture", trace_path,
                     "--bench-scale", "0.02"]) == 0
        capsys.readouterr()
        args = ["replay", "--replay", trace_path, "--mode", "open",
                "--scale", "2.0", "--json"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_needs_capture_or_replay(self, capsys):
        assert main(["replay"]) == 2
        assert "need --capture" in capsys.readouterr().err

    def test_missing_trace_file_fails_cleanly(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.jsonl")
        assert main(["replay", "--replay", missing]) == 2
        assert "replay:" in capsys.readouterr().err

    def test_corrupt_trace_file_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert main(["replay", "--replay", str(bad)]) == 2
        assert "replay:" in capsys.readouterr().err
