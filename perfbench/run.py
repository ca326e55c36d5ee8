#!/usr/bin/env python3
"""The repo benchmark: closed-loop workloads against the Anception simulator.

Run from the repository root::

    python3 perfbench/run.py --workload paper_sync --seed 1 --seconds 10

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with
no probes installed.  ``--trace 1`` makes the same untraced run, then a
second, traced pass over the same seeded op window on a fresh world, and
reports the per-layer metrics (see ``layers.py``).  Both print a detailed
report line (provenance, sample counts, the sim ledger) and, as the last
line, ``{"correct", "attempted", "failed", "metrics"}``.  The exit code is
non-zero when any op failed or a check did not hold.

Every run sets up its workload (boot, install, warm-up) ``SETUP_REPS``
times and reports the median (``setup_s``), and times ops for
``--seconds`` seconds.  The workload's first ``window_ops`` ops form the
deterministic window: simulated time, heap growth and every count are
taken over exactly those ops, so they repeat for a seed whatever the
host's speed (heap growth up to allocator-layout effects of a fraction
of a percent).  The metric names and units printed are the ones
``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from array import array

from layers import SIM_LAYERS, WALL_LAYERS, Tracer, sim_ledger

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

CPU_NS = time.thread_time_ns
"""The clock of every timed metric: this thread's CPU time.  Ops and
set-ups never block, so it reads their wall time minus the time the host
gave the CPU to someone else; such gaps, tens of ms on a shared host,
would otherwise decide the tail of the op times."""

SETUP_REPS = 5
CHUNK_OPS = 1000
"""Ops per stretch of the timed run; the op-time metrics are medians over
stretches, so a burst of host noise spoils one stretch, not the run."""
MAX_FAILURES_SHOWN = 5


# -- provenance ---------------------------------------------------------------

def _git_commit():
    """HEAD's commit read from ``.git`` without running git, or None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as head:
            ref = head.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as tip:
                return tip.read().strip()
        with open(os.path.join(git, "packed-refs")) as packed:
            for line in packed:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest():
    """sha256 over every ``src/**/*.py`` path and content, sorted."""
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(SRC):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as source:
                    digest.update(source.read())
    return digest.hexdigest()


def provenance(seed):
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
    }


# -- measurement --------------------------------------------------------------

def _us_per_op(ns, ops):
    return ns / ops / 1e3


def _percentile(ordered, share):
    """Nearest-rank percentile of an ascending sequence."""
    return ordered[max(1, math.ceil(len(ordered) * share)) - 1]


def op_time_metrics(times, calls):
    """Op-time metrics of a run, as medians over its op stretches.

    ``times`` and ``calls`` hold each op's CPU ns and syscall count.  The
    run is cut into equal stretches of at least ``CHUNK_OPS`` ops (one
    stretch if it is shorter); each gives its p50, its p99 (ten or more
    ops beyond it) and its syscalls per second.
    """
    count = max(1, len(times) // CHUNK_OPS)
    size = len(times) // count
    p50, p99, rate = [], [], []
    for first in range(0, count * size, size):
        stretch = times[first:first + size]
        ordered = sorted(stretch)
        p50.append(_percentile(ordered, 0.50) / 1e3)
        p99.append(_percentile(ordered, 0.99) / 1e3)
        rate.append(sum(calls[first:first + size]) / (sum(stretch) / 1e9))
    return {"syscalls_per_s": statistics.median(rate),
            "op_us_p50": statistics.median(p50),
            "op_us_p99": statistics.median(p99),
            "stretches": count, "stretch_ops": size}


def _program_counts(world):
    """Counters the program keeps itself, read between ops."""
    layer = world.anception
    counts = {
        "retained": (len(layer.decision_log) + len(layer.recovery_log)
                     + len(layer.blocked_calls)),
        "retries": sum(1 for action, _detail in layer.recovery_log
                       if action == "retry"),
        "hits": 0, "misses": 0, "evicted_pages": 0, "fill_pages": 0,
    }
    for lane in layer.pool.lanes:
        if lane.page_cache is not None:
            stats = lane.page_cache.stats()
            for key in ("hits", "misses", "evicted_pages", "fill_pages"):
                counts[key] += stats[key]
    return counts


def _delta(after, before):
    return {key: after[key] - before[key] for key in after}


def set_up(cls, seed):
    """Boot, install and warm one workload; returns it and phase seconds."""
    workload = cls(seed)
    t0 = CPU_NS()
    workload.boot()
    t1 = CPU_NS()
    workload.install()
    t2 = CPU_NS()
    workload.warm()
    t3 = CPU_NS()
    return workload, ((t1 - t0) / 1e9, (t2 - t1) / 1e9, (t3 - t2) / 1e9)


class Failures:
    """Failed ops: a count plus the first few messages."""

    def __init__(self):
        self.count = 0
        self.shown = []

    def add(self, op, exc):
        self.count += 1
        if len(self.shown) < MAX_FAILURES_SHOWN:
            self.shown.append(f"op {op}: {type(exc).__name__}: {exc}")


def _run_op(workload, inputs, op, failures):
    """Op number ``op``; returns its syscall count (0 if it failed)."""
    try:
        return workload.run_op(inputs)
    except Exception as exc:  # the op boundary: count it and keep going
        failures.add(op, exc)
        return 0


def run_untraced(cls, seed, seconds, window=None):
    """The end-to-end run: ``seconds`` of timed ops, plus set-ups.

    The first set-up makes the world the ops run on.  The other
    ``SETUP_REPS - 1`` set-ups are spread over the timed run, between
    ops, so their median samples the host's speed across the run rather
    than in one burst.
    """
    workload, phase = set_up(cls, seed)
    phases = [phase]
    world = workload.world
    window = window or workload.window_ops
    failures = Failures()
    times = array("q")
    calls = array("l")

    gc.collect()
    blocks0 = sys.getallocatedblocks()
    counts0 = _program_counts(world)
    sim0 = world.clock.now_ns
    start = time.perf_counter()
    deadline = start + seconds
    for op in range(window):
        inputs = workload.make_op()
        t0 = CPU_NS()
        calls.append(_run_op(workload, inputs, op, failures))
        times.append(CPU_NS() - t0)
    window_sim_ns = world.clock.now_ns - sim0
    window_syscalls = sum(calls)
    window_counts = _delta(_program_counts(world), counts0)
    gc.collect()
    window_blocks = sys.getallocatedblocks() - blocks0
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    op = window
    while True:
        now = time.perf_counter()
        if now >= start + seconds * len(phases) / SETUP_REPS \
                and len(phases) < SETUP_REPS:
            phases.append(set_up(cls, seed)[1])
            gc.collect()  # the ops must not pay for the dropped world
            continue
        if now >= deadline:
            break
        inputs = workload.make_op()
        t0 = CPU_NS()
        calls.append(_run_op(workload, inputs, op, failures))
        times.append(CPU_NS() - t0)
        op += 1

    stretches = op_time_metrics(times, calls)
    metrics = {
        "syscalls_per_s": stretches.pop("syscalls_per_s"),
        "op_us_p50": stretches.pop("op_us_p50"),
        "op_us_p99": stretches.pop("op_us_p99"),
        "sim_us_per_op": _us_per_op(window_sim_ns, window),
        "setup_s": statistics.median(sum(phase) for phase in phases),
        "heap_blocks_per_kcall": window_blocks / (window_syscalls / 1e3),
        "peak_rss_mb": peak_rss_kb / 1024,
    }
    return {
        "metrics": metrics,
        "ops": len(times),
        "syscalls": sum(calls),
        "stretches": stretches,
        "failures": failures,
        "mean_op_ns": sum(times) / len(times),
        "window": {
            "ops": window,
            "sim_ns": window_sim_ns,
            "syscalls": window_syscalls,
            "heap_blocks": window_blocks,
            **window_counts,
        },
        "setup_ms": {
            name: statistics.median(phase[i] for phase in phases) * 1e3
            for i, name in enumerate(("boot", "install", "warm"))
        },
        "setup_reps_s": [sum(phase) for phase in phases],
    }


def run_traced(cls, seed, window=None, spans_path=None):
    """The traced pass: the same op window on a fresh world, wrapped."""
    from repro.obs.bus import TraceBus

    workload, _phase = set_up(cls, seed)
    world = workload.world
    window = window or workload.window_ops
    clock = world.clock
    bus = TraceBus.install(clock)
    host_label = world.machine.kernel.label
    failures = Failures()
    host, lane, unmapped = {}, {}, {}
    charges = 0
    events = {"wb-fence": 0, "binder-fence": 0}
    drains = {"wb-drain": [0, 0], "binder-drain": [0, 0]}
    counts0 = _program_counts(world)
    sim0 = clock.now_ns
    syscalls = 0
    residual = 0
    op_cpu_ns = 0
    with Tracer(world) as tracer:
        for op in range(window):
            inputs = workload.make_op()
            base = len(bus.records)
            op_sim0 = clock.now_ns
            with bus.capture() as capture:
                t0 = CPU_NS()
                tracer.begin_op(op)
                syscalls += _run_op(workload, inputs, op, failures)
                tracer.end_op()
                op_cpu_ns += CPU_NS() - t0
            guests = {each.cvm.kernel.label
                      for each in world.anception.pool.lanes}
            op_host, op_lane, op_unmapped = sim_ledger(
                capture.records, base, tracer.overlaps, host_label, guests)
            tracer.overlaps.clear()
            residual += (clock.now_ns - op_sim0
                         - sum(op_host.values()) - sum(op_unmapped.values()))
            for into, part in ((host, op_host), (lane, op_lane),
                               (unmapped, op_unmapped)):
                for key, ns in part.items():
                    into[key] = into.get(key, 0) + ns
            for record in capture.records:
                kind = record["type"]
                if kind == "charge":
                    charges += 1
                elif record["kind"] in events and kind == "event":
                    events[record["kind"]] += 1
                elif record["kind"] in drains and kind == "span":
                    drains[record["kind"]][0] += 1
                    drains[record["kind"]][1] += record["args"]["batch"]
    if spans_path is not None:
        tracer.write_spans(spans_path)
    loads = world.anception.pool.load_by_lane()
    return {
        "ops": window,
        "syscalls": syscalls,
        "failures": failures,
        "mean_op_ns": op_cpu_ns / window,
        "sim_ns": clock.now_ns - sim0,
        "residual_ns": residual,
        "host_ns": host,
        "lane_ns": lane,
        "unmapped_ns": unmapped,
        "charges": charges,
        "events": events,
        "drains": drains,
        "counts": dict(tracer.counts),
        "program": _delta(_program_counts(world), counts0),
        "self_ns": tracer.self_times(),
        "missing_entries": tracer.missing,
        "lane_loads": loads,
    }


def layer_metrics(plain, traced):
    """The per-layer metrics of ``BENCHMARK.json`` from one traced pass."""
    ops = traced["ops"]
    counts = traced["counts"]
    program = traced["program"]
    self_ns = traced["self_ns"]
    host = traced["host_ns"]
    kcalls = traced["syscalls"] / 1e3 or 1

    def per_op(value):
        return value / ops

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for layer in WALL_LAYERS:
        out[f"{layer}.self_us_per_op"] = per_op(self_ns.get(layer, 0)) / 1e3
    for layer in SIM_LAYERS:
        out[f"{layer}.sim_us_per_op"] = per_op(host.get(layer, 0)) / 1e3
    for layer in ("kernel.host", "kernel.guest", "core.marshal",
                  "core.completion"):
        out[f"{layer}.calls_per_op"] = per_op(counts.get(layer + ".calls", 0))
    out["core.policy.redirect_share"] = ratio(
        counts.get("core.policy.redirects", 0),
        counts.get("core.policy.decisions", 0))
    out["core.marshal.wire_bytes_per_op"] = per_op(
        counts.get("core.marshal.wire_bytes", 0))
    out["core.ring.descriptors_per_op"] = per_op(
        counts.get("core.ring.descriptors", 0))
    out["core.ring.ring_full_flushes"] = counts.get(
        "core.ring.ring_full_flushes", 0)
    out["core.channel.bytes_per_op"] = per_op(
        counts.get("core.channel.bytes", 0))
    out["hypervisor.doorbells_per_op"] = per_op(
        counts.get("hypervisor.doorbells", 0))
    out["hypervisor.descriptors_per_doorbell"] = ratio(
        counts.get("hypervisor.descriptors", 0),
        counts.get("hypervisor.doorbells", 0))
    out["core.proxy.descriptors_per_drain"] = ratio(
        counts.get("core.proxy.descriptors", 0),
        counts.get("core.proxy.drains", 0))
    lookups = program["hits"] + program["misses"]
    out["core.page_cache.hit_ratio"] = ratio(program["hits"], lookups)
    out["core.page_cache.lookups_per_op"] = per_op(lookups)
    out["core.page_cache.evictions_per_op"] = per_op(program["evicted_pages"])
    out["core.page_cache.fill_pages_per_op"] = per_op(program["fill_pages"])
    drains = traced["drains"]
    out["core.windows.wb_entries_per_drain"] = ratio(
        drains["wb-drain"][1], drains["wb-drain"][0])
    out["core.windows.binder_entries_per_drain"] = ratio(
        drains["binder-drain"][1], drains["binder-drain"][0])
    out["core.windows.fences_per_op"] = per_op(
        sum(traced["events"].values()))
    loads = traced["lane_loads"]
    out["core.pool.lane_load_skew"] = ratio(max(loads),
                                            sum(loads) / len(loads))
    out["android.binder.txns_per_op"] = per_op(
        counts.get("android.binder.calls", 0))
    out["core.anception.retained_entries_per_kcall"] = (
        program["retained"] / kcalls)
    out["core.anception.recovery_retries"] = program["retries"]
    out["perf.slab.acquires_per_op"] = per_op(
        counts.get("perf.slab.calls", 0))
    out["clock.charges_per_op"] = per_op(traced["charges"])
    for phase, ms in plain["setup_ms"].items():
        out[f"setup.{phase}_ms"] = ms
    out["ledger.sim_residual_ns"] = traced["residual_ns"]
    out["ledger.unmapped_sim_us_per_op"] = per_op(
        sum(traced["unmapped_ns"].values())) / 1e3
    out["ledger.wall_unattributed_share"] = ratio(self_ns.get("op", 0),
                                                  sum(self_ns.values()))
    out["trace.overhead_x"] = ratio(traced["mean_op_ns"], plain["mean_op_ns"])
    return out


def consistency(plain, traced):
    """Checks that the traced pass saw exactly the untraced window."""
    window = plain["window"]
    problems = []
    pairs = [
        ("sim ns", window["sim_ns"], traced["sim_ns"]),
        ("syscalls", window["syscalls"], traced["syscalls"]),
        ("host kernel calls", window["syscalls"],
         traced["counts"].get("kernel.host.calls", 0)),
        ("sim residual ns", 0, traced["residual_ns"]),
    ] + [(key, window[key], got)
         for key, got in traced["program"].items()]
    for what, want, got in pairs:
        if want != got:
            problems.append(f"traced {what} {got} != {want}")
    return problems


# -- entry point --------------------------------------------------------------

def declared_units(kind):
    """``{metric: unit}`` of one metric list in ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as manifest:
        return {m["name"]: m["unit"] for m in json.load(manifest)[kind]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--spans-dir", default=os.path.join(ROOT, ".perfbench"),
        help="where a traced run writes its spans (JSON lines)")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    from workloads import CONFIGS, WORKLOADS
    import_s = time.perf_counter() - t0

    cls = WORKLOADS.get(args.workload)
    if cls is None:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(known: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2

    plain = run_untraced(cls, args.seed, args.seconds)
    failures = plain["failures"]
    attempted = plain["ops"]
    report = {
        "workload": args.workload,
        "why": cls.why,
        "config": CONFIGS[args.workload],
        "provenance": provenance(args.seed),
        "seconds": args.seconds,
        "samples": {"ops": plain["ops"], "syscalls": plain["syscalls"],
                    "setup_reps": SETUP_REPS, **plain["stretches"]},
        "window": plain["window"],
        "setup_ms": plain["setup_ms"],
        "program_import_s": import_s,
        "setup_reps_s": plain["setup_reps_s"],
        "end_to_end": plain["metrics"],
    }
    problems = []
    if args.trace:
        os.makedirs(args.spans_dir, exist_ok=True)
        spans = os.path.join(args.spans_dir, f"spans-{args.workload}.jsonl")
        traced = run_traced(cls, args.seed, spans_path=spans)
        attempted += traced["ops"]
        failures.count += traced["failures"].count
        failures.shown += traced["failures"].shown
        problems = consistency(plain, traced)
        metrics = layer_metrics(plain, traced)
        ops = traced["ops"]
        report["ledger"] = {
            "host_sim_us_per_op": {k: _us_per_op(v, ops) for k, v
                                   in sorted(traced["host_ns"].items())},
            "lane_sim_us_per_op": {k: _us_per_op(v, ops) for k, v
                                   in sorted(traced["lane_ns"].items())},
            "unmapped_ns": traced["unmapped_ns"],
            "residual_ns": traced["residual_ns"],
        }
        report["traced_sim_us_per_op"] = _us_per_op(traced["sim_ns"], ops)
        report["missing_entries"] = traced["missing_entries"]
        report["spans"] = os.path.relpath(spans, ROOT)
        report["per_layer"] = metrics
    else:
        metrics = plain["metrics"]
    units = declared_units("per_layer" if args.trace else "end_to_end")
    if set(metrics) != set(units):
        problems.append(
            f"metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(units) - set(metrics))}, undeclared "
            f"{sorted(set(metrics) - set(units))}")
    report["failures"] = failures.shown
    report["problems"] = problems
    correct = failures.count == 0 and not problems
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failures.count,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items() if name in metrics
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
