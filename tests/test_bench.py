"""Unit tests for the benchmark harness."""

import pytest

from repro.bench import (FileSpec, ITERATION_BYTES, READER_COUNTS,
                         files_for_readers, full_fileset, repeat,
                         run_local_once, run_nfs_once, run_stride_once,
                         stride_offsets)
from repro.host import TestbedConfig

MB = 1 << 20
SCALE = 1 / 64  # tiny files: tests must be fast


class TestFileset:
    def test_equal_split(self):
        specs = files_for_readers(4)
        assert len(specs) == 4
        assert all(spec.size == 64 * MB for spec in specs)

    def test_total_preserved_across_counts(self):
        for count in READER_COUNTS:
            specs = files_for_readers(count)
            assert sum(spec.size for spec in specs) == ITERATION_BYTES

    def test_scale_shrinks_files(self):
        specs = files_for_readers(2, scale=0.5)
        assert specs[0].size == 64 * MB

    def test_names_unique(self):
        names = [spec.name for spec in full_fileset(scale=1 / 16)]
        assert len(names) == len(set(names))
        assert len(names) == sum(READER_COUNTS)

    def test_full_fileset_is_paper_shape(self):
        specs = full_fileset()
        assert specs[0].size == 256 * MB
        assert specs[-1].size == 8 * MB
        assert sum(spec.size for spec in specs) == 6 * 256 * MB

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            files_for_readers(0)
        with pytest.raises(ValueError):
            files_for_readers(1, scale=0.0)


class TestStrideOffsets:
    def test_two_arm_interleave(self):
        offsets = stride_offsets(8 * 8192, strides=2, read_size=8192)
        assert [offset // 8192 for offset in offsets] == \
            [0, 4, 1, 5, 2, 6, 3, 7]

    def test_every_block_exactly_once(self):
        offsets = stride_offsets(64 * 8192, strides=4, read_size=8192)
        assert sorted(offsets) == [index * 8192 for index in range(64)]

    def test_single_arm_is_sequential(self):
        offsets = stride_offsets(4 * 8192, strides=1, read_size=8192)
        assert offsets == [0, 8192, 16384, 24576]


class TestRunners:
    def test_local_run_reads_everything(self):
        result = run_local_once(TestbedConfig(), 4, scale=SCALE)
        assert result.total_bytes == \
            sum(s.size for s in files_for_readers(4, SCALE))
        assert result.throughput_mb_s > 0
        assert len(result.completion_times()) == 4

    def test_nfs_run_reads_everything(self):
        result = run_nfs_once(TestbedConfig(), 2, scale=SCALE)
        assert result.total_bytes == \
            sum(s.size for s in files_for_readers(2, SCALE))

    def test_stride_run(self):
        result = run_stride_once(TestbedConfig(), 4, scale=SCALE)
        assert result.total_bytes > 0
        assert len(result.readers) == 1

    def test_completion_times_sorted(self):
        result = run_local_once(TestbedConfig(), 8, scale=SCALE)
        times = result.completion_times()
        assert times == sorted(times)

    def test_runs_are_deterministic_per_seed(self):
        first = run_local_once(TestbedConfig(seed=3), 2, scale=SCALE)
        second = run_local_once(TestbedConfig(seed=3), 2, scale=SCALE)
        assert first.elapsed == second.elapsed

    def test_different_seeds_differ(self):
        first = run_nfs_once(TestbedConfig(seed=1), 2, scale=SCALE)
        second = run_nfs_once(TestbedConfig(seed=2), 2, scale=SCALE)
        assert first.elapsed != second.elapsed


class TestParallelRepeat:
    def test_parallel_summary_matches_serial(self, tmp_path):
        # Fanning repeats out is the campaign driver's job; three
        # workers must reproduce the in-process loop's floats exactly.
        import functools
        from repro.bench.runner import collect_throughputs
        from repro.campaign import (CampaignOptions, bench_spec,
                                    run_bench_campaign)
        point = functools.partial(run_nfs_once, nreaders=2, scale=SCALE)
        config = TestbedConfig(seed=11)
        serial = collect_throughputs(point, config, runs=3)
        spec = bench_spec(3, readers=2, scale=SCALE, seed=11)
        record, _ = run_bench_campaign(
            spec, str(tmp_path / "j.jsonl"),
            options=CampaignOptions(workers=3, cell_timeout=60.0))
        assert record["throughputs_mb_s"] == serial   # bit-identical
        summary = repeat(point, config, runs=3)
        assert (record["mean_mb_s"], record["std_mb_s"]) == \
            (summary.mean, summary.std)


class TestRepeat:
    def test_repeat_summarises(self):
        summary = repeat(lambda config: run_local_once(config, 1, SCALE),
                         TestbedConfig(), runs=3)
        assert summary.count == 3
        assert summary.mean > 0

    def test_paper_variance_criterion(self):
        """§4.3: 'the standard deviation for each set of runs is less
        than 5% of the mean' — at our tiny test scale (4 MB files)
        per-run noise is relatively larger, so the bound is doubled;
        the archived full benches meet the 5% criterion on nearly
        every point."""
        summary = repeat(lambda config: run_nfs_once(config, 2, SCALE),
                         TestbedConfig(), runs=4)
        assert summary.relative_std < 0.12

    def test_zero_runs_rejected(self):
        with pytest.raises(ValueError):
            repeat(lambda config: None, TestbedConfig(), runs=0)
