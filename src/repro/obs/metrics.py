"""Counters read from the components, histograms built from a capture.

Counters have one source: the components keep plain integers (kernels,
hypervisors, channels and their rings, proxy managers, binder drivers,
page caches, async windows, the Anception layer's logs, the fault
engine), and :class:`MetricsRegistry` reads them when asked.  It takes
a baseline when it is built and reports deltas since then, so counters
cost nothing until read and a dormant (untraced) run counts exactly
what a traced one does.  Only the four histograms need per-record
detail; they are built from a capture's records when a snapshot is
taken, so an untraced run reports them empty.  This is the one
counter reader: the trace summary, the chaos report and the world
digest all read :func:`read_counts`.

Per-lane counters carry ``lane`` as their first label: ``host`` for the
host kernel, the pool lane's name for a CVM lane.  Layer-wide counters
(blocked calls, recoveries, injected faults) carry none.

The monotone rule: no count the registry reads may go down.  A CVM
reboot replaces its lane's channel, proxy manager, guest kernel and
binder driver, so the layer folds their counts into ``lane.retired``
first (:func:`retire_lane`); everything else a lane holds survives.
``lane.retired`` is keyed without the lane label, which is added when
it is read.

Snapshots are plain JSON-able dicts with deterministic ordering, so two
identical runs serialize byte-identically and CI can diff them.
"""

from __future__ import annotations

from repro.clock import NSEC_PER_USEC
from repro.kernel.syscalls import classify


COUNTERS = dict.fromkeys((
    "binder_deferred_errors_total", "binder_drains_total",
    "binder_fences_total", "binder_submits_total", "cache_hits_total",
    "cache_misses_total", "cvm_reboots_total", "irqs_total",
    "page_faults_total", "proxy_calls_total", "ring_completes_total",
    "ring_submits_total", "wb_deferred_errors_total", "wb_drains_total",
    "wb_fences_total", "wb_submits_total",
), ("lane",))
COUNTERS.update({
    "binder_txns_total": ("lane", "kind"),
    "blocked_calls_total": (),
    "cache_fill_pages_total": ("lane", "kind"),
    "cache_invalidations_total": ("lane", "cause"),
    "channel_bytes_total": ("lane", "direction"),
    "channel_chunks_total": ("lane", "direction"),
    "doorbells_coalesced_total": ("lane", "direction"),
    "faults_injected_total": ("site",),
    "recoveries_total": ("action",),
    "syscalls_total": ("lane", "sclass", "disposition"),
    "world_switches_total": ("lane", "direction"),
})
"""Counter name -> label names.  ``lane`` is ``host`` for the host
kernel's traps, page faults and binder transactions, and the pool lane's
name (``cvm``, ``cvm1``, ...) for everything a CVM lane holds."""


def _count(counts, name, value, *labels):
    """Add ``value`` to one labelled counter of a flat count map."""
    if value:
        key = (name, labels)
        counts[key] = counts.get(key, 0) + value


def _kernel(counts, kernel, binder):
    """One kernel's traps and page faults, and its binder driver."""
    for disposition, calls in kernel.syscall_counts.items():
        for call, value in calls.items():
            _count(counts, "syscalls_total", value, classify(call).value,
                   disposition)
    _count(counts, "page_faults_total", kernel.page_faults)
    for kind, value in binder.transactions.items():
        _count(counts, "binder_txns_total", value, kind)


def _replaced_on_reboot(counts, lane):
    """Counts held by the lane objects a reboot replaces: the channel
    and its rings, the proxy manager, the guest kernel and its binder
    driver.  Keyed without the lane label."""
    channel = lane.channel
    carried = {"to-guest": channel.bytes_to_guest,
               "to-host": channel.bytes_to_host}
    for direction, value in carried.items():
        _count(counts, "channel_bytes_total",
               value + channel.refused_bytes[direction], direction)
        _count(counts, "channel_chunks_total", channel.chunks[direction],
               direction)
    _count(counts, "ring_submits_total", channel.submit_ring.pushed)
    _count(counts, "ring_completes_total", channel.complete_ring.pushed)
    _count(counts, "proxy_calls_total", lane.proxies.executed)
    _kernel(counts, lane.cvm.kernel, lane.cvm.android.binder_driver)


def retire_lane(lane):
    """Fold what a reboot is about to replace into ``lane.retired``."""
    _replaced_on_reboot(lane.retired, lane)


def _lane(lane):
    """One lane's counts, keyed without the lane label."""
    counts = dict(lane.retired)
    _replaced_on_reboot(counts, lane)
    # The hypervisor and the container survive reboots.
    hypervisor = lane.cvm.hypervisor
    _count(counts, "world_switches_total", hypervisor.hypercall_count,
           "guest->host")
    _count(counts, "world_switches_total", hypervisor.interrupt_count,
           "host->guest")
    _count(counts, "irqs_total", hypervisor.interrupt_count)
    for direction, value in hypervisor.coalesced.items():
        _count(counts, "doorbells_coalesced_total", value, direction)
    _count(counts, "cvm_reboots_total", lane.cvm.reboot_count)
    cache = lane.page_cache
    if cache is not None:
        _count(counts, "cache_hits_total", cache.hits)
        _count(counts, "cache_misses_total", cache.misses)
        _count(counts, "cache_fill_pages_total", cache.fill_pages, "demand")
        _count(counts, "cache_fill_pages_total", cache.readahead_pages,
               "readahead")
        _count(counts, "cache_invalidations_total",
               cache.write_through_pages, "write-through")
        _count(counts, "cache_invalidations_total", cache.invalidated_pages,
               "invalidated")
        _count(counts, "cache_invalidations_total", cache.evicted_pages,
               "evicted")
    for windows in (lane.write_behind, lane.binder_ring):
        if windows is not None:
            prefix = windows.policy.prefix
            _count(counts, f"{prefix}_submits_total", windows.enqueued)
            _count(counts, f"{prefix}_drains_total", windows.drains)
            _count(counts, f"{prefix}_fences_total", windows.fences)
            _count(counts, f"{prefix}_deferred_errors_total",
                   windows.deferred_errors)
    return counts


def _labelled(counts, lane_name, own):
    """Add one lane's counts to ``counts`` under its ``lane`` label."""
    for (name, labels), value in own.items():
        counts[name, (lane_name, *labels)] = value


def read_counts(world, engine=None):
    """Every counter of ``world`` (and of ``engine``), as a flat
    ``{(name, label values): value}`` map of non-zero counts."""
    counts = {}
    host = {}
    _kernel(host, world.machine.kernel, world.system.binder_driver)
    _labelled(counts, "host", host)
    layer = world.anception
    if layer is not None:
        for lane in layer.pool.lanes:
            _labelled(counts, lane.name, _lane(lane))
        _count(counts, "blocked_calls_total", layer.blocked_calls.total)
        for action, _detail in layer.recovery_log:
            _count(counts, "recoveries_total", 1, action)
    if engine is not None:
        for site, value in engine.report()["fired_by_site"].items():
            _count(counts, "faults_injected_total", value, site)
    return counts


DEFAULT_LATENCY_BUCKETS_US = (
    1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000,
    10_000, 20_000, 50_000,
)
"""Fixed per-syscall latency buckets (microseconds); +inf is implicit."""

DEFAULT_RING_DEPTH_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128)
"""Queue-depth buckets for the delegation rings; +inf is implicit."""


class Histogram:
    """Fixed-bucket histogram (cumulative counts, Prometheus-style)."""

    __snapshot__ = "auto"

    def __init__(self, name, buckets, unit=""):
        self.name = name
        self.buckets = tuple(buckets)
        self.unit = unit
        self.counts = [0] * (len(self.buckets) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value):
        self.count += 1
        self.total += value
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def quantile(self, q):
        """Bucket-interpolated quantile of the observed values.

        Prometheus ``histogram_quantile`` semantics: the target rank is
        located in the cumulative bucket counts and position within the
        owning bucket is linearly interpolated between its bounds (the
        first bucket interpolates from 0).  The overflow bucket has no
        upper bound, so any rank landing there reports the last finite
        bound — a deliberate underestimate rather than an invention.
        Returns 0.0 for an empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        cumulative = 0
        lower = 0.0
        for i, bound in enumerate(self.buckets):
            previous = cumulative
            cumulative += self.counts[i]
            if cumulative >= target and self.counts[i]:
                fraction = (target - previous) / self.counts[i]
                fraction = min(1.0, max(0.0, fraction))
                return lower + (bound - lower) * fraction
            lower = float(bound)
        return float(self.buckets[-1]) if self.buckets else 0.0

    def snapshot(self):
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "unit": self.unit,
            "count": self.count,
            "sum": round(self.total, 6),
            "quantiles": {
                "p50": round(self.quantile(0.50), 3),
                "p95": round(self.quantile(0.95), 3),
                "p99": round(self.quantile(0.99), 3),
            },
        }


def histograms(records):
    """The four histograms of a capture's span and event records, as
    ``{name: snapshot}`` in sorted-name order."""
    latency = Histogram("syscall_latency_us", DEFAULT_LATENCY_BUCKETS_US,
                        unit="us")
    ring = Histogram("ring_depth", DEFAULT_RING_DEPTH_BUCKETS,
                     unit="descriptors")
    wb = Histogram("wb_inflight_depth", DEFAULT_RING_DEPTH_BUCKETS,
                   unit="descriptors")
    binder = Histogram("binder_window_depth", DEFAULT_RING_DEPTH_BUCKETS,
                       unit="transactions")
    depths = {
        "ring-submit": (ring, "depth"),
        "ring-complete": (ring, "depth"),
        "wb-submit": (wb, "depth"),
        "binder-submit": (binder, "depth"),
        "binder-drain": (binder, "batch"),
    }
    for record in records:
        kind = record["kind"]
        if kind == "syscall":
            latency.observe(
                (record["end_ns"] - record["begin_ns"]) / NSEC_PER_USEC)
        elif kind in depths:
            histogram, arg = depths[kind]
            histogram.observe(record["args"].get(arg, 1))
    return {histogram.name: histogram.snapshot()
            for histogram in (binder, ring, latency, wb)}


class MetricsRegistry:
    """The standard metric set of one world.

    Counters are read from the world's components and reported as
    deltas since the registry was built; histograms are built from the
    records handed to :meth:`snapshot`.  ``faults_injected_total``
    reads the fault engine armed on the world's clock when the registry
    is built, and keeps reading it after it is disarmed.
    """

    def __init__(self, world):
        self.world = world
        self.engine = world.clock.faults
        self._baseline = read_counts(world, self.engine)

    def counters(self):
        """``{name: [{"labels": ..., "value": ...}]}`` of the non-zero
        deltas since the registry was built, sorted by name and labels."""
        baseline = self._baseline
        snapshot = {name: [] for name in sorted(COUNTERS)}
        for key, value in sorted(read_counts(self.world,
                                             self.engine).items()):
            delta = value - baseline.get(key, 0)
            if delta:
                name, labels = key
                snapshot[name].append({
                    "labels": dict(zip(COUNTERS[name], labels)),
                    "value": delta,
                })
        return snapshot

    def snapshot(self, records):
        """JSON-able snapshot of the counters and of the histograms of
        ``records`` (a capture's records; ``[]`` for an untraced run);
        round-trips losslessly through json.

        Both sections are built in sorted-name order, so the snapshot
        prints deterministically even without ``sort_keys``.
        """
        return {
            "counters": self.counters(),
            "histograms": histograms(records),
        }
