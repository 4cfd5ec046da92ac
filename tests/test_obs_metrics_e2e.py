"""End-to-end metrics accounting: the layers must sum to the client.

A seeded single-reader sequential run over NFS/UDP with read-ahead
disabled (client ``readahead_blocks = 0``, server heuristic ``none``)
keeps exactly one request in flight at a time, so the per-layer latency
histograms must tile the client-observed elapsed time exactly:

* reader elapsed  = client marshal/receive CPU + sum of RPC RTTs
* RTT total       = wire time (both directions) + server handle time
* handle total    = nfsd queue wait + per-op service time
* READ service    = server CPU + file-system read time
* fs read         = buffer-cache wait + per-call FFS read overhead

Any drift beyond float-summation error means a layer is double-counted
or unaccounted — exactly the bug class this battery exists to catch.
"""

import pytest

from repro.bench.readers import ReaderResult, sequential_reader
from repro.host.testbed import TestbedConfig, build_nfs_testbed

REL_TOL = 1e-9
SIZE = 512 * 1024


@pytest.fixture(scope="module")
def accounted_run():
    """One clean, metered, single-reader sequential NFS read."""
    config = TestbedConfig(drive="scsi", partition=1, transport="udp",
                           server_heuristic="none", seed=3, metrics=True)
    testbed = build_nfs_testbed(config)
    # No client read-ahead: every block is fetched synchronously, so
    # the reader's elapsed time decomposes exactly.
    testbed.mount.config.readahead_blocks = 0
    testbed.server.export_file("f0", SIZE)
    result = ReaderResult("f0")

    def open_fn(span=None):
        nfile = yield from testbed.mount.open("f0", span=span)
        return nfile

    def read_fn(handle, offset, nbytes, span=None):
        got = yield from testbed.mount.read(handle, offset, nbytes,
                                            span=span)
        return got

    testbed.sim.spawn(
        sequential_reader(testbed.sim, open_fn, read_fn, SIZE, result,
                          tracer=testbed.obs.tracer),
        name="reader:f0")
    testbed.sim.run()
    assert result.bytes_read == SIZE
    return result, testbed.obs.registry.snapshot(), \
        testbed.fs.params.read_overhead


def hist_sum(snapshot, name):
    hist = snapshot["histograms"].get(name)
    return hist["sum"] if hist else 0.0


def hist_count(snapshot, name):
    hist = snapshot["histograms"].get(name)
    return hist["count"] if hist else 0


def prefixed_sum(snapshot, prefix):
    return sum(hist["sum"]
               for name, hist in snapshot["histograms"].items()
               if name.startswith(prefix))


class TestLayerAccounting:
    def test_client_layers_sum_to_reader_elapsed(self, accounted_run):
        result, snap, _overhead = accounted_run
        accounted = (hist_sum(snap, "nfs.client.cpu_s")
                     + prefixed_sum(snap, "nfs.client.rtt_s.")
                     + hist_sum(snap, "nfs.client.nfsiod_wait_s"))
        assert result.elapsed == pytest.approx(accounted, rel=REL_TOL)

    def test_rtt_splits_into_wire_plus_server_handle(self, accounted_run):
        _result, snap, _overhead = accounted_run
        rtt = prefixed_sum(snap, "nfs.client.rtt_s.")
        assert rtt == pytest.approx(
            hist_sum(snap, "net.wire_s")
            + hist_sum(snap, "rpc.server.handle_s"), rel=REL_TOL)
        # One RPC at a time: each call crosses the wire exactly twice.
        rtt_count = sum(
            hist["count"] for name, hist in snap["histograms"].items()
            if name.startswith("nfs.client.rtt_s."))
        assert hist_count(snap, "net.wire_s") == 2 * rtt_count

    def test_handle_splits_into_queue_wait_plus_service(
            self, accounted_run):
        _result, snap, _overhead = accounted_run
        assert hist_sum(snap, "rpc.server.handle_s") == pytest.approx(
            hist_sum(snap, "nfs.server.nfsd_wait_s")
            + prefixed_sum(snap, "nfs.server.service_s."), rel=REL_TOL)

    def test_read_service_splits_into_cpu_plus_fsread(
            self, accounted_run):
        _result, snap, _overhead = accounted_run
        assert hist_sum(snap, "nfs.server.service_s.ReadRequest") == \
            pytest.approx(hist_sum(snap, "nfs.server.cpu_s")
                          + hist_sum(snap, "nfs.server.fsread_s"),
                          rel=REL_TOL)

    def test_fsread_splits_into_cache_wait_plus_overhead(
            self, accounted_run):
        _result, snap, read_overhead = accounted_run
        n_reads = hist_count(snap, "nfs.server.fsread_s")
        assert n_reads == hist_count(snap, "ffs.cache_wait_s")
        assert hist_sum(snap, "nfs.server.fsread_s") == pytest.approx(
            hist_sum(snap, "ffs.cache_wait_s")
            + n_reads * read_overhead, rel=REL_TOL)

    def test_block_wait_never_exceeds_elapsed(self, accounted_run):
        result, snap, _overhead = accounted_run
        assert hist_sum(snap, "nfs.client.block_wait_s") <= \
            result.elapsed * (1 + REL_TOL)

    def test_disk_bytes_by_zone_cover_the_file(self, accounted_run):
        _result, snap, _overhead = accounted_run
        zone_bytes = sum(
            value for name, value in snap["gauges"].items()
            if name.startswith("disk.zone") and
            name.endswith(".bytes_read"))
        assert zone_bytes >= SIZE


class TestTracedRunExport:
    """Acceptance: a traced NFS run exports Perfetto-loadable JSON with
    spans for every request-path layer."""

    @pytest.fixture(scope="class")
    def traced_session(self):
        from repro.bench.runner import run_nfs_once
        from repro.obs import observe

        config = TestbedConfig(drive="scsi", partition=1,
                               transport="udp", seed=7)
        with observe(trace=True) as session:
            run_nfs_once(config, 2, scale=1 / 64)
        return session

    def test_all_request_path_layers_present(self, traced_session):
        from repro.obs.export import LAYER_CATEGORIES

        categories = {span.cat for span in traced_session.spans}
        missing = [cat for cat in LAYER_CATEGORIES
                   if cat not in categories]
        assert missing == []

    def test_stream_is_well_formed(self, traced_session):
        from repro.obs import check_well_formed

        assert check_well_formed(traced_session.spans) == []

    def test_json_is_trace_event_format(self, traced_session):
        import json

        payload = json.loads(traced_session.trace_json())
        events = payload["traceEvents"]
        assert len(events) == len(traced_session.spans)
        for event in events[:50]:
            assert event["ph"] == "X"
            assert set(event) >= {"name", "cat", "ts", "dur",
                                  "pid", "tid", "args"}


# ---------------------------------------------------------------------------
# The counter fold: every Stats field and endpoint counter reaches --metrics
# ---------------------------------------------------------------------------

#: Every gauge a 2-client NFS testbed emitted before the counter fold
#: existed; each must survive under the same name.
LEGACY_NFS_GAUGES = (
    "disk.busy_s", "disk.cache.hit_rate", "disk.partition_index",
    "disk.queue.outstanding", "disk.reorder_fraction", "disk.tcq_depth",
    "disk.tcq_enabled", "host.server.cpu_s", "kernel.bufq.depth",
    "kernel.cache.hit_rate", "net.tcp.segment_retransmits",
    "net.udp.datagrams_lost", "nfs.client.attr_checks",
    "nfs.client.attr_hits", "nfs.client.attr_misses",
    "nfs.client.cto_getattrs", "nfs.client.lookup_cache_hits",
    "nfs.client.lookup_rpcs", "nfs.client.nfsiod_busy",
    "nfs.client.path_components", "nfs.client.path_walks",
    "nfs.client.readdir_entries", "nfs.client.readdir_listings",
    "nfs.client.readdir_restarts", "nfs.client.readdir_rpcs",
    "nfs.client.stale_attr_hits", "nfs.client.verifier_resends",
    "nfs.mount.acdirmax", "nfs.mount.acregmax", "nfs.mount.close_to_open",
    "nfs.mount.readdir_count", "nfs.server.bad_cookies",
    "nfs.server.boot_epoch", "nfs.server.creates",
    "nfs.server.lookup_misses", "nfs.server.lookups",
    "nfs.server.mean_seqcount", "nfs.server.mkdirs",
    "nfs.server.nfsd_busy", "nfs.server.nfsd_queued",
    "nfs.server.nfsheur_ejections", "nfs.server.nfsheur_hit_rate",
    "nfs.server.nfsheur_lookups", "nfs.server.nfsheur_occupancy",
    "nfs.server.nfsheur_table_size", "nfs.server.readdir_entries",
    "nfs.server.readdirs", "nfs.server.removes", "nfs.server.renames",
    "nfs.server.setattrs", "nfs.server.stale_handles",
    "rpc.client.retransmits", "rpc.client.timeouts",
    "rpc.server.dupreq_evictions", "rpc.server.dupreq_hits",
) + tuple(f"disk.zone{zone}.{kind}" for zone in range(12)
          for kind in ("bytes_read", "mb_s"))


def stats_gauge_names():
    """The gauge name of every int/float field of the five Stats
    classes, read off the field annotations."""
    from dataclasses import fields

    from repro.disk import DriveStats
    from repro.kernel import CacheStats
    from repro.nfs import NfsHeurStats, NfsMountStats, NfsServerStats

    prefixes = {CacheStats: "kernel.cache.", DriveStats: "disk.",
                NfsServerStats: "nfs.server.",
                NfsHeurStats: "nfs.server.nfsheur_",
                NfsMountStats: "nfs.client."}
    renamed = {"disk.busy_time": "disk.busy_s"}
    names = []
    for cls, prefix in prefixes.items():
        for f in fields(cls):
            if f.type in ("int", "float", int, float):
                name = prefix + f.name
                names.append(renamed.get(name, name))
    return names


def _mixed_client(mount, index):
    """Reads, a namespace mutation, and a committed write."""
    nfile = yield from mount.open("f0")
    yield from mount.read(nfile, 0, 256 * 1024)
    created = yield from mount.create(f"d/new{index}")
    yield from mount.stat(f"d/new{index}")
    yield from mount.write(created, 0, 16 * 1024)
    yield from mount.commit(created)


@pytest.fixture(scope="module", params=["udp", "tcp"])
def faulted_testbed(request):
    """A 2-client testbed through loss and one server crash."""
    from repro.faults import FaultSpec, NetworkFaults, ServerFaults

    config = TestbedConfig(
        num_clients=2, transport=request.param, seed=5, metrics=True,
        faults=FaultSpec(network=NetworkFaults(loss_good=0.02),
                         server=ServerFaults(crash_times=(0.3,))))
    testbed = build_nfs_testbed(config)
    testbed.server.export_file("f0", 512 * 1024)
    testbed.server.export_file("d/seed", 8192)
    processes = [testbed.sim.spawn(_mixed_client(mount, index))
                 for index, mount in enumerate(testbed.mounts)]
    testbed.sim.run()
    for process in processes:
        assert process.finished and process.error is None
    return testbed


class TestCounterFold:
    def test_every_stats_field_reaches_metrics_out(self, tmp_path):
        import json

        from repro.cli import main

        path = tmp_path / "m.json"
        main(["xreplay", "--runs", "1", "--scale", "0.02",
              "--metrics-out", str(path)])
        snapshots = json.loads(path.read_text())["snapshots"]
        assert snapshots
        expected = set(stats_gauge_names()) | set(LEGACY_NFS_GAUGES)
        for snap in snapshots:
            assert expected - set(snap["gauges"]) == set()

    def test_fold_equals_hand_sums(self, faulted_testbed):
        from dataclasses import fields

        tb = faulted_testbed
        fold = tb.counters()
        mounts, server = tb.mounts, tb.server

        def total(objects, attr):
            return sum(getattr(obj, attr) for obj in objects)

        expected = {
            "host.server.cpu_s": tb.machine.cpu_time_consumed,
            "nfs.server.boot_epoch": server.boot_epoch,
            "rpc.client.calls": total(tb.rpc_clients, "calls"),
            "rpc.client.retransmits": total(tb.rpc_clients,
                                            "retransmitted"),
            "rpc.client.timeouts": total(tb.rpc_clients, "timeouts"),
            "net.udp.datagrams_lost": sum(
                getattr(ep, "datagrams_lost", 0)
                for ep in tb.transport_endpoints),
            "net.tcp.segment_retransmits": sum(
                getattr(ep, "retransmits", 0)
                for ep in tb.transport_endpoints),
        }
        for attr in ("requests", "executed", "dropped", "dupreq_hits",
                     "dupreq_in_progress_drops", "dupreq_evictions",
                     "duplicate_executions"):
            expected[f"rpc.server.{attr}"] = total(tb.rpc_servers, attr)
        for prefix, objects in (
                ("kernel.cache.", [tb.cache.stats]),
                ("disk.", [tb.drive.stats]),
                ("nfs.server.", [server.stats]),
                ("nfs.server.nfsheur_", [server.nfsheur.stats]),
                ("nfs.client.", [m.stats for m in mounts])):
            for f in fields(objects[0]):
                if f.type in ("int", "float"):
                    name = "disk.busy_s" if f.name == "busy_time" \
                        else prefix + f.name
                    expected[name] = total(objects, f.name)
        assert {name: fold[name] for name in expected} == expected
        # The run really exercised the counters being compared.
        assert fold["nfs.server.crashes"] == 1
        assert fold["rpc.client.retransmits"] \
            + fold["net.tcp.segment_retransmits"] > 0
        assert fold["nfs.client.creates"] == 2
        assert fold["nfs.server.meta_intents"] >= 2
        assert fold["nfs.client.commits"] >= 2

    def test_gauges_are_the_fold(self, faulted_testbed):
        gauges = faulted_testbed.obs.registry.snapshot()["gauges"]
        fold = faulted_testbed.counters()
        assert {name: gauges[name] for name in fold} == \
            {name: float(value) for name, value in fold.items()}
        assert set(LEGACY_NFS_GAUGES) <= set(gauges)
        assert len(LEGACY_NFS_GAUGES) == 79

    def test_local_testbed_still_emits_gauges(self):
        from repro.bench.runner import run_local_once

        result = run_local_once(TestbedConfig(seed=3, metrics=True), 2,
                                scale=0.01)
        gauges = result.metrics["gauges"]
        for name in ("disk.busy_s", "host.server.cpu_s",
                     "kernel.cache.hit_rate", "disk.zone0.bytes_read",
                     "kernel.cache.misses", "disk.seeks"):
            assert name in gauges
        assert gauges["disk.busy_s"] > 0
        assert gauges["kernel.cache.misses"] > 0
        assert not any(name.startswith(("nfs.", "rpc.", "net."))
                       for name in gauges)
