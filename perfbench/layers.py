"""Per-layer tracing for the benchmark: wrapped layer entries, spans kept
in memory, and a sim-time ledger on the same layer names.

The program under ``src/`` carries no benchmark probes.  For a traced
run, :class:`Tracer` replaces each layer's entry function (listed in
:data:`ENTRIES`) with a wrapper that records a span ``[layer, start_ns,
end_ns, parent, op]`` and bumps the layer's counters, and puts every
original back afterwards, so an untraced run never executes a wrapper.
An entry that no longer exists is skipped and listed in
``Tracer.missing``; its layer then reads zero instead of breaking the
run.

Wall self time of a span is its duration minus the durations of its
direct children.  The benchmark opens one root ``op`` span per op, so the
layers' self times plus the op spans' own self time add up to the traced
op wall exactly; the op share is ``ledger.wall_unattributed_share``.

Sim time comes from one capture of clock charges on the program's
:class:`repro.obs.bus.TraceBus`.  :func:`layer_of_charge` maps each
charge label to a layer.  Charges made inside a ``SimClock.overlap``
window accrue to a CVM lane, not to host-visible time; the host pays for
them only through the ``wait``/fence charges it makes when it catches
up.  The ledger therefore sums host-visible charges per layer, which
must equal the end-to-end sim time exactly (``ledger.sim_residual_ns``
is 0), and reports lane charges beside it.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter


KERNEL = "kernel.*"
"""Placeholder layer of ``Kernel.syscall``: the host kernel's instance
is ``kernel.host``, every CVM kernel's is ``kernel.guest``."""

FLUSH = "flush"
"""Placeholder layer of ``AnceptionLayer.flush``: a window drain (its
reason names the window) is ``core.windows``; a synchronous flush opens
no span, so its self time stays with the caller (host dispatch)."""

ENTRIES = (
    ("repro.kernel.kernel", "Kernel", "syscall", KERNEL),
    ("repro.core.policy", "RedirectionPolicy", "decide", "core.policy"),
    ("repro.core.anception", None, "marshal_call_into", "core.marshal"),
    ("repro.core.anception", None, "marshal_call", "core.marshal"),
    ("repro.core.ring", "DelegationRing", "push", "core.ring"),
    ("repro.core.ring", "DelegationRing", "pop", "core.ring"),
    # The ring copies payloads through ``_transfer`` directly;
    # ``send_to_guest``/``send_to_host`` are thin veneers over it.
    ("repro.core.channel", "AnceptionChannel", "_transfer", "core.channel"),
    ("repro.core.channel", "AnceptionChannel", "signal_guest",
     "core.channel"),
    ("repro.core.channel", "AnceptionChannel", "signal_host",
     "core.channel"),
    ("repro.hypervisor.lguest", "LguestHypervisor", "inject_interrupt",
     "hypervisor"),
    ("repro.hypervisor.lguest", "LguestHypervisor", "hypercall",
     "hypervisor"),
    ("repro.core.proxy", "ProxyManager", "drain", "core.proxy"),
    ("repro.core.anception", "AnceptionLayer", "complete",
     "core.completion"),
    ("repro.core.page_cache", "HostPageCache", "lookup", "core.page_cache"),
    ("repro.core.page_cache", "HostPageCache", "fill_window",
     "core.page_cache"),
    ("repro.core.page_cache", "HostPageCache", "refresh_ino",
     "core.page_cache"),
    ("repro.core.anception", "AnceptionLayer", "wb_fence", "core.windows"),
    ("repro.core.anception", "AnceptionLayer", "async_fence",
     "core.windows"),
    ("repro.core.anception", "AnceptionLayer", "flush", FLUSH),
    ("repro.core.pool", "CVMPool", "lane_for", "core.pool"),
    ("repro.android.binder", "BinderDriver", "transact", "android.binder"),
    ("repro.perf.slab", "SlabPool", "acquire", "perf.slab"),
)
"""``(module, class or None, attribute, layer)`` per wrapped entry."""

WALL_LAYERS = (
    "kernel.host", "core.policy", "core.marshal", "core.ring",
    "core.channel", "hypervisor", "core.proxy", "kernel.guest",
    "core.completion", "core.page_cache", "core.windows", "core.pool",
    "android.binder", "perf.slab",
)

SIM_LAYERS = (
    "kernel.host", "core.marshal", "core.channel",
    "hypervisor", "core.proxy", "kernel.guest", "core.page_cache",
    "core.windows", "android.binder", "core.anception",
)
"""Layers clock charges map to (:func:`layer_of_charge`)."""

CHARGE_RULES = (
    ("irq:", "hypervisor"),
    ("hypercall:", "hypervisor"),
    ("channel:", "core.channel"),
    ("anception:marshal", "core.marshal"),
    ("anception:proxy-post", "core.proxy"),
    ("anception:cache-", "core.page_cache"),
    ("anception:wb-", "core.windows"),
    ("anception:binder-window", "core.windows"),
    ("anception:binder-stage", "core.windows"),
    ("anception:binder-backpressure", "core.windows"),
    ("anception:binder-fence", "core.windows"),
    ("wait:", "core.windows"),
    # The remaining binder charges carry one transaction into the CVM
    # (fixed hop, per-byte and bulk-parcel costs), windowed or not.
    ("anception:binder-", "android.binder"),
    ("binder:", "android.binder"),
    # Recovery and lane-lifecycle costs of the layer itself.
    ("anception:", "core.anception"),
    ("asim-check", "kernel.host"),
)
"""Ordered ``(label prefix, layer)`` rules; the first match wins.
``syscall:<name>`` charges go to the kernel whose syscall span opened
right before them, and ``<kernel label>:<call>`` charges to that kernel."""


def layer_of_charge(label, kernel_of_seq, seq, host_label, guest_labels):
    """The layer a clock charge belongs to, or ``None`` if unmapped."""
    for prefix, layer in CHARGE_RULES:
        if label.startswith(prefix):
            return layer
    if label.startswith("syscall:"):
        # Kernel.syscall charges its base cost first thing inside its
        # span, so the charge's sequence number directly follows it.
        kernel = kernel_of_seq.get(seq - 1)
    else:
        kernel = label.partition(":")[0]
    if kernel == host_label:
        return "kernel.host"
    if kernel in guest_labels:
        return "kernel.guest"
    return None


def _flush_layer(args, kwargs):
    reason = kwargs.get("reason", args[2] if len(args) > 2 else None)
    if isinstance(reason, str) and reason.startswith(
            ("write-behind:", "binder:")):
        return "core.windows"
    return None


def _count_flush(counts, args, kwargs, result):
    if kwargs.get("reason", args[2] if len(args) > 2 else None) \
            == "ring-full":
        counts["core.ring.ring_full_flushes"] += 1


def _count_decide(counts, args, kwargs, result):
    counts["core.policy.decisions"] += 1
    if getattr(result, "name", "") == "REDIRECT":
        counts["core.policy.redirects"] += 1


def _count_marshal(counts, args, kwargs, result):
    counts["core.marshal.wire_bytes"] += result[1]


def _count_push(counts, args, kwargs, result):
    counts["core.ring.descriptors"] += 1


def _count_transfer(counts, args, kwargs, result):
    counts["core.channel.bytes"] += len(args[1])


def _count_doorbell(counts, args, kwargs, result):
    counts["hypervisor.doorbells"] += 1
    counts["hypervisor.descriptors"] += kwargs.get(
        "coalesced", args[2] if len(args) > 2 else 1)


def _count_drain(counts, args, kwargs, result):
    counts["core.proxy.drains"] += 1
    counts["core.proxy.descriptors"] += len(args[2])


COUNTERS = {
    ("RedirectionPolicy", "decide"): _count_decide,
    (None, "marshal_call_into"): _count_marshal,
    (None, "marshal_call"): _count_marshal,
    ("DelegationRing", "push"): _count_push,
    ("AnceptionChannel", "_transfer"): _count_transfer,
    ("LguestHypervisor", "inject_interrupt"): _count_doorbell,
    ("LguestHypervisor", "hypercall"): _count_doorbell,
    ("ProxyManager", "drain"): _count_drain,
    ("AnceptionLayer", "flush"): _count_flush,
}
"""Extra counters per entry; every span also counts ``<layer>.calls``."""


class _MarkedOverlap:
    """An overlap window that notes which bus records it spans."""

    __slots__ = ("_window", "_bus", "_ranges", "_start")

    def __init__(self, window, bus, ranges):
        self._window = window
        self._bus = bus
        self._ranges = ranges

    def __enter__(self):
        self._start = len(self._bus.records)
        self._window.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb):
        result = self._window.__exit__(exc_type, exc, tb)
        self._ranges.append((self._start, len(self._bus.records)))
        return result


class Tracer:
    """Wraps the layer entries of one world for the length of a ``with``.

    ``spans`` holds ``[layer, start_ns, end_ns, parent, op]`` lists in
    the order they opened; ``parent`` indexes ``spans`` (-1 for a root).
    """

    def __init__(self, world):
        self.world = world
        self.host_kernel = world.machine.kernel
        self.spans = []
        self.counts = Counter()
        self.missing = []
        self.overlaps = []
        self.op = -1
        self._stack = []
        self._saved = []

    # -- wrapping -----------------------------------------------------------

    def __enter__(self):
        try:
            for module_name, class_name, attr, layer in ENTRIES:
                module = importlib.import_module(module_name)
                owner = module if class_name is None \
                    else getattr(module, class_name, None)
                if owner is None or not hasattr(owner, attr):
                    self.missing.append(f"{module_name}.{class_name}.{attr}")
                    continue
                self._install(owner, attr, self._wrapper(
                    getattr(owner, attr), layer,
                    COUNTERS.get((class_name, attr))))
            self._install_overlap_marker()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, exc_type, exc, tb):
        self.restore()
        return False

    def restore(self):
        """Put every original entry back, newest first."""
        while self._saved:
            owner, attr, original, owned = self._saved.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def _install(self, owner, attr, wrapper):
        owned = attr in vars(owner)
        self._saved.append((owner, attr, getattr(owner, attr), owned))
        setattr(owner, attr, wrapper)

    def _wrapper(self, original, layer, count):
        spans = self.spans
        stack = self._stack
        counts = self.counts
        now = time.perf_counter_ns
        tracer = self
        host = self.host_kernel
        if layer == KERNEL:
            def pick(args, kwargs):
                return "kernel.host" if args[0] is host else "kernel.guest"
        elif layer == FLUSH:
            pick = _flush_layer
        else:
            pick = None

        def wrapper(*args, **kwargs):
            name = layer if pick is None else pick(args, kwargs)
            if name is None:
                result = original(*args, **kwargs)
            else:
                span = [name, now(), 0, stack[-1] if stack else -1,
                        tracer.op]
                stack.append(len(spans))
                spans.append(span)
                try:
                    result = original(*args, **kwargs)
                finally:
                    span[2] = now()
                    stack.pop()
                counts[name + ".calls"] += 1
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def _install_overlap_marker(self):
        from repro.clock import SimClock
        from repro.obs.bus import TraceBus

        original = SimClock.overlap
        bus = TraceBus.install(self.world.clock)
        ranges = self.overlaps

        def overlap(clock, *args, **kwargs):
            return _MarkedOverlap(original(clock, *args, **kwargs), bus,
                                  ranges)

        overlap.__wrapped__ = original
        self._install(SimClock, "overlap", overlap)

    # -- ops ----------------------------------------------------------------

    def begin_op(self, op):
        """Open the root span of op number ``op``."""
        self.op = op
        self._stack.append(len(self.spans))
        self.spans.append(["op", time.perf_counter_ns(), 0, -1, op])

    def end_op(self):
        self.spans[self._stack.pop()][2] = time.perf_counter_ns()

    # -- results ------------------------------------------------------------

    def self_times(self):
        """``{layer: total self ns}`` including the root ``op`` spans."""
        own = [end - start for _name, start, end, _parent, _op in self.spans]
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        totals = {}
        for (name, *_rest), ns in zip(self.spans, own):
            totals[name] = totals.get(name, 0) + ns
        return totals

    def write_spans(self, path):
        """Write the spans as JSON lines: op, layer, start, end, parent."""
        with open(path, "w") as out:
            for name, start, end, parent, op in self.spans:
                out.write(f'[{op},"{name}",{start},{end},{parent}]\n')


def sim_ledger(records, base, overlaps, host_label, guest_labels):
    """Group one capture's clock charges by layer.

    ``records`` is the capture's record list, ``base`` the bus index of
    its first record and ``overlaps`` the ``(start, end)`` bus-index
    ranges of overlap windows.  Returns ``(host, lane, unmapped)``:
    host-visible ns per layer, lane-accrued ns per layer (unmapped lane
    charges under ``"unmapped"``), and host ns per unmapped label.
    """
    kernel_of_seq = {
        r["seq"]: r["kernel"] for r in records
        if r["type"] == "span" and r["kind"] == "syscall"
    }
    ranges = sorted(overlaps)
    host, lane, unmapped = {}, {}, {}
    cursor = 0
    for offset, record in enumerate(records):
        if record["type"] != "charge":
            continue
        index = base + offset
        while cursor < len(ranges) and ranges[cursor][1] <= index:
            cursor += 1
        in_lane = cursor < len(ranges) and ranges[cursor][0] <= index
        layer = layer_of_charge(record.name, kernel_of_seq, record.seq,
                                host_label, guest_labels)
        if layer is None and not in_lane:
            unmapped[record.name] = (unmapped.get(record.name, 0)
                                     + record.dur_ns)
            continue
        into = lane if in_lane else host
        layer = layer or "unmapped"
        into[layer] = into.get(layer, 0) + record.dur_ns
    return host, lane, unmapped
