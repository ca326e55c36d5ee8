"""MetricsRegistry: counters read from a live world, histograms, JSON."""

import errno
import hashlib
import json
from dataclasses import replace

import pytest

from repro.core.config import FAST, PAPER
from repro.errors import SyscallError
from repro.faults.chaos import run_chaos
from repro.obs.bus import TraceBus
from repro.obs.metrics import (
    COUNTERS,
    DEFAULT_LATENCY_BUCKETS_US,
    Histogram,
    MetricsRegistry,
    read_counts,
)
from repro.obs.runner import TRACE_WORKLOADS, boot_obs_world, run_traced


CONFIGS = {
    "paper": PAPER,
    "fast": FAST,
    "fast-4cvm": replace(FAST, cvms=4, placement="by-uid"),
}


def _values(registry, name):
    """{label values: value} of one counter."""
    return {
        tuple(entry["labels"].values()): entry["value"]
        for entry in registry.counters()[name]
    }


def _total(registry, name):
    return sum(_values(registry, name).values())


@pytest.fixture
def obs_world():
    return boot_obs_world()


class TestCounter:
    def test_labelled_increments(self, obs_world):
        world, ctx = obs_world
        registry = MetricsRegistry(world)
        ctx.libc.getpid()
        ctx.libc.getpid()
        ctx.libc.stat(ctx.data_path("."))
        values = _values(registry, "syscalls_total")
        assert values[("host", "host", "anception")] == 2
        # the host traps the stat, the CVM proxy's kernel runs it
        assert values[("host", "redirect", "anception")] == 1
        assert values[("cvm", "redirect", "native")] == 1

    def test_snapshot_is_sorted_and_labelled(self, obs_world):
        world, ctx = obs_world
        registry = MetricsRegistry(world)
        ctx.libc.getpid()
        ctx.libc.stat(ctx.data_path("."))
        counters = registry.counters()
        assert list(counters) == sorted(COUNTERS)
        for name, entries in counters.items():
            keys = [tuple(entry["labels"].values()) for entry in entries]
            assert keys == sorted(keys)
            for entry in entries:
                assert tuple(entry["labels"]) == COUNTERS[name]
                assert entry["value"] > 0

    def test_counts_before_the_registry_are_excluded(self, obs_world):
        world, ctx = obs_world
        ctx.libc.getpid()
        registry = MetricsRegistry(world)
        assert registry.counters()["syscalls_total"] == []
        ctx.libc.getpid()
        assert _total(registry, "syscalls_total") == 1


class TestLaneLabels:
    def test_per_lane_counters_lead_with_the_lane(self):
        for name, labels in COUNTERS.items():
            if name in ("blocked_calls_total", "faults_injected_total",
                        "recoveries_total"):
                assert "lane" not in labels
            else:
                assert labels[0] == "lane"
                assert "lane" not in labels[1:]

    def test_host_and_guest_traps_are_separate_series(self):
        # The read cache serves one of the 25 trapped redirects.
        values = _values(run_traced("fileops", config=FAST).metrics,
                         "syscalls_total")
        assert values[("host", "redirect", "anception")] == 25
        assert values[("cvm", "redirect", "native")] == 24
        assert ("host", "redirect", "native") not in values
        assert ("cvm", "redirect", "anception") not in values

    @pytest.mark.parametrize("workload", sorted(TRACE_WORKLOADS))
    def test_host_anception_traps_equal_the_layer_decisions(self,
                                                            workload):
        world = run_traced(workload, observe=False).world
        trapped = sum(value for (name, labels), value
                      in read_counts(world).items()
                      if name == "syscalls_total"
                      and labels[0] == "host" and labels[2] == "anception")
        assert trapped == sum(world.anception.decisions.values())

    def test_binder_transactions_split_by_kind(self):
        result = run_traced("binderburst",
                            config=CONFIGS["fast-4cvm"])
        counters = result.metrics.counters()
        kinds = {entry["labels"]["kind"]
                 for entry in counters["binder_txns_total"]}
        assert kinds <= {"ui", "delegated"} and kinds


class TestHistogram:
    def test_fixed_buckets(self):
        histogram = Histogram("h", (10, 100), unit="us")
        for value in (5, 50, 500):
            histogram.observe(value)
        snap = histogram.snapshot()
        assert snap["counts"] == [1, 1, 1]  # <=10, <=100, +inf
        assert snap["count"] == 3
        assert snap["sum"] == 555

    def test_default_bucket_bounds_ascend(self):
        assert list(DEFAULT_LATENCY_BUCKETS_US) == sorted(
            DEFAULT_LATENCY_BUCKETS_US
        )


class TestRegistry:
    def test_syscall_span_updates_counter_and_histogram(self, obs_world):
        world, ctx = obs_world
        registry = MetricsRegistry(world)
        with TraceBus.install(world.clock).capture() as capture:
            ctx.libc.getpid()
        assert _values(registry, "syscalls_total") == {
            ("host", "host", "anception"): 1,
        }
        histograms = registry.snapshot(capture.records)["histograms"]
        assert histograms["syscall_latency_us"]["count"] == 1

    def test_records_feed_only_the_histograms(self, obs_world):
        world, _ctx = obs_world
        registry = MetricsRegistry(world)
        snapshot = registry.snapshot([{
            "type": "span", "kind": "syscall", "name": "getpid",
            "begin_ns": 0, "end_ns": 760, "sclass": "host",
            "args": {"disposition": "native"},
        }, {
            "type": "span", "kind": "ring-submit", "name": "write#1",
            "begin_ns": 0, "end_ns": 10, "args": {"depth": 3},
        }])
        assert all(entries == [] for entries in snapshot["counters"].values())
        assert snapshot["histograms"]["syscall_latency_us"]["count"] == 1
        assert snapshot["histograms"]["ring_depth"]["count"] == 1

    def test_world_switch_and_channel(self, obs_world):
        world, ctx = obs_world
        fd = ctx.libc.open(ctx.data_path("m.bin"), 0o101)
        registry = MetricsRegistry(world)
        ctx.libc.write(fd, b"w" * 4096)
        assert _values(registry, "world_switches_total") == {
            ("cvm", "guest->host"): 1, ("cvm", "host->guest"): 1,
        }
        assert _values(registry, "irqs_total") == {("cvm",): 1}
        assert _values(registry, "channel_bytes_total")[
            ("cvm", "to-guest")] >= 4096
        assert _values(registry, "channel_chunks_total")[
            ("cvm", "to-guest")] == 2

    def test_blocked_event_counted_separately_from_proxy_spans(
            self, obs_world):
        world, ctx = obs_world
        registry = MetricsRegistry(world)
        with pytest.raises(SyscallError) as exc:
            ctx.libc.syscall("reboot")
        assert exc.value.errno == errno.EPERM
        assert _total(registry, "blocked_calls_total") == 1
        assert _total(registry, "proxy_calls_total") == 0
        bus = TraceBus.install(world.clock)
        with bus.capture():  # the host's forward: span is no execution
            ctx.libc.stat(ctx.data_path("."))
        assert _total(registry, "proxy_calls_total") == 1

    def test_snapshot_round_trips_through_json(self, obs_world):
        world, ctx = obs_world
        registry = MetricsRegistry(world)
        ctx.libc.getpid()
        snapshot = registry.snapshot([])
        assert json.loads(json.dumps(snapshot)) == snapshot

    def test_live_workload_populates_registry(self):
        result = run_traced("write4k")
        metrics = result.metrics
        assert _total(metrics, "world_switches_total") >= 2
        assert _values(metrics, "channel_bytes_total")[
            ("cvm", "to-guest")] >= 4096
        assert _total(metrics, "syscalls_total") >= 3
        snapshot = metrics.snapshot(result.records)
        assert json.loads(json.dumps(snapshot)) == snapshot


class TestDormantEqualsTraced:
    @pytest.mark.parametrize("config", sorted(CONFIGS))
    @pytest.mark.parametrize("workload", sorted(TRACE_WORKLOADS))
    def test_untraced_run_reports_the_same_counters(self, workload,
                                                    config):
        traced = run_traced(workload, config=CONFIGS[config])
        dormant = run_traced(workload, config=CONFIGS[config],
                             observe=False)
        counters = traced.metrics.counters()
        assert dormant.metrics.counters() == counters
        assert counters["syscalls_total"]

        histograms = traced.metrics.snapshot(traced.records)["histograms"]
        spans = [r["kind"] for r in traced.records if r["type"] == "span"]
        assert histograms["syscall_latency_us"]["count"] \
            == spans.count("syscall")
        assert histograms["ring_depth"]["count"] \
            == spans.count("ring-submit") + spans.count("ring-complete")
        dormant_histograms = dormant.metrics.snapshot([])["histograms"]
        assert list(dormant_histograms) == list(histograms)
        assert all(h["count"] == 0 and not any(h["counts"])
                   for h in dormant_histograms.values())


class TestHistogramPins:
    """The histograms of two runs, pinned by the sha256 prefix of their
    sorted JSON; any change in which records they count, or in their
    order of summation, moves the digest."""

    @staticmethod
    def _digest(result):
        histograms = result.metrics.snapshot(result.records)["histograms"]
        text = json.dumps(histograms, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def test_four_lane_binderburst(self):
        result = run_traced("binderburst", config=CONFIGS["fast-4cvm"])
        assert self._digest(result) == "b88992ab0d59a228"

    def test_chaos_fileops(self):
        assert self._digest(run_chaos("fileops", seed=7)) \
            == "84beb21a7ee58abd"


class TestProxyCalls:
    @pytest.mark.parametrize("workload", sorted(TRACE_WORKLOADS))
    def test_counts_each_execution_once(self, workload):
        result = run_traced(workload)
        executed = [r for r in result.records if r["kind"] == "proxy"
                    and r["name"].startswith("execute:")]
        assert _total(result.metrics, "proxy_calls_total") == len(executed)

    def test_equals_the_descriptors_the_proxies_drained(self, obs_world):
        world, ctx = obs_world
        ring = world.anception.channel.submit_ring
        popped = ring.popped
        registry = MetricsRegistry(world)
        TRACE_WORKLOADS["fileops"](ctx)
        assert _total(registry, "proxy_calls_total") == ring.popped - popped


class TestMonotone:
    def _assert_no_count_fell(self, before, after):
        fell = {key: (value, after.get(key, 0))
                for key, value in before.items()
                if after.get(key, 0) < value}
        assert fell == {}

    def test_chaos_reboot_keeps_the_pre_reboot_traffic(self):
        result = run_chaos("fileops", seed=7)
        counters = result.metrics.counters()
        assert counters["cvm_reboots_total"] == [
            {"labels": {"lane": "cvm"}, "value": 1}]
        assert all(entry["value"] > 0
                   for entries in counters.values() for entry in entries)
        assert sum(e["value"] for e in counters["ring_submits_total"]) == 35
        assert sum(e["value"]
                   for e in counters["channel_bytes_total"]) == 6595
        assert sum(e["value"] for e in counters["irqs_total"]) == 35
        # the live channel only saw the traffic after the reboot
        channel = result.world.anception.channel
        assert channel.submit_ring.pushed == 24

    def test_faults_still_read_after_disarm(self):
        result = run_chaos("fileops", seed=7)
        assert result.world.clock.faults is None
        assert _values(result.metrics, "faults_injected_total") == {
            ("channel.corrupt",): 1, ("cvm.crash",): 1,
            ("irq.drop",): 1, ("proxy.kill",): 1,
        }

    def test_reboot_respawn_and_exit(self, obs_world):
        world, ctx = obs_world
        layer = world.anception
        TRACE_WORKLOADS["fileops"](ctx)
        before = read_counts(world)
        layer.proxies.respawn_proxy(ctx.libc.task)
        after = read_counts(world)
        self._assert_no_count_fell(before, after)
        layer.reboot_cvm()
        TRACE_WORKLOADS["getpid"](ctx)
        before, after = after, read_counts(world)
        self._assert_no_count_fell(before, after)
        ctx.libc.syscall("exit", 0)
        self._assert_no_count_fell(after, read_counts(world))

    def test_migration(self):
        world, ctx = boot_obs_world(CONFIGS["fast-4cvm"])
        layer = world.anception
        TRACE_WORKLOADS["fileops"](ctx)
        before = read_counts(world)
        source = layer._lane(ctx.libc.task)
        target = layer.pool.lane_by_id((source.cvm_id + 1) % 4)
        assert layer.migrate(ctx.libc.task, target)
        self._assert_no_count_fell(before, read_counts(world))


class TestQuantiles:
    def test_interpolates_within_bucket(self):
        histogram = Histogram("h", (10, 20, 30))
        for value in (5, 15, 25, 28):
            histogram.observe(value)
        # p50 rank = 2.0 lands at the top of the (10, 20] bucket.
        assert histogram.quantile(0.50) == 20.0
        # p25 rank = 1.0 -> the first bucket, interpolated from 0.
        assert histogram.quantile(0.25) == 10.0

    def test_first_bucket_interpolates_from_zero(self):
        histogram = Histogram("h", (100,))
        histogram.observe(1)
        histogram.observe(1)
        assert histogram.quantile(0.5) == 50.0

    def test_overflow_bucket_reports_last_finite_bound(self):
        histogram = Histogram("h", (10, 100))
        histogram.observe(5000)
        assert histogram.quantile(0.99) == 100.0

    def test_empty_histogram_is_zero(self):
        assert Histogram("h", (10,)).quantile(0.5) == 0.0

    def test_rejects_out_of_range(self):
        histogram = Histogram("h", (10,))
        try:
            histogram.quantile(1.5)
        except ValueError:
            pass
        else:
            raise AssertionError("expected ValueError")

    def test_snapshot_surfaces_p50_p95_p99(self):
        histogram = Histogram("h", DEFAULT_LATENCY_BUCKETS_US, unit="us")
        for value in range(1, 101):
            histogram.observe(value)
        quantiles = histogram.snapshot()["quantiles"]
        assert set(quantiles) == {"p50", "p95", "p99"}
        assert quantiles["p50"] <= quantiles["p95"] <= quantiles["p99"]
        assert quantiles["p99"] <= 200  # inside the (100, 200] bucket

    def test_registry_snapshot_sorted_and_quantiled(self, obs_world):
        registry = MetricsRegistry(obs_world[0])
        snapshot = registry.snapshot([{
            "type": "span", "kind": "syscall", "name": "write",
            "begin_ns": 0, "end_ns": 42_000, "sclass": "fs",
            "args": {"disposition": "delegated"},
        }])
        assert list(snapshot["counters"]) == sorted(snapshot["counters"])
        assert list(snapshot["histograms"]) == sorted(snapshot["histograms"])
        latency = snapshot["histograms"]["syscall_latency_us"]
        # One sample in (20, 50]: p50 interpolates halfway up the bucket.
        assert latency["quantiles"]["p50"] == 35.0
