"""Engine-throughput benchmark: simulated syscalls per wall-clock second.

Everything else under ``repro.perf`` measures *simulated* latency — the
paper's numbers, deterministic on any machine.  This harness measures
the other thing the ROADMAP's "engine raw speed" item needs: how fast
the single-threaded Python engine grinds through those simulated calls
in real time, per workload.  The output is ``BENCH_engine.json``
(``anception bench-engine``), gated in CI against a committed baseline:
a >20% drop in syscalls/sec, or any drift in the simulated digest, on
any workload fails the build.  Per-layer wall attribution is not this
harness's job: ``python3 perfbench/run.py --trace 1`` splits wall and
sim time by the paper's layers and reconciles the two.

Methodology (per workload):

1. boot one :class:`~repro.world.AnceptionWorld` (cache + write-behind
   on, the tooling defaults) and run one warm-up iteration so files
   exist and the cache is primed — every later iteration replays an
   identical steady-state call stream;
2. count the stream once under the TraceBus (simulated syscalls and
   nanoseconds per iteration are deterministic, so one census serves
   every timed pass);
3. time ``runs`` passes of ``inner`` iterations with observation
   dormant; the *best* pass (least scheduler noise) is the throughput
   numerator.

Wall-clock numbers are machine-dependent by nature, which is why the
regression gate compares *ratios* against the committed baseline (and
why the pytest coverage in ``benchmarks/`` asserts structure, never
absolute throughput).
"""

from __future__ import annotations

import json
import os
import statistics
import time

from repro.errors import SyscallError
from repro.obs.bus import TraceBus
from repro.obs.metrics import MetricsRegistry
from repro.obs.runner import TRACE_WORKLOADS, boot_obs_world, run_traced


SCHEMA = "anception-bench-engine/2"
"""Report layout id.  2: no profiled pass and no ``profiler`` block."""

ENGINE_WORKLOADS = ("fileops", "batchio", "writeburst")
"""The gated workloads: mixed metadata/file I/O, ring-batched vectored
I/O, and the write-behind burst — together they cover every delegation
hot path."""

DEFAULT_INNER = 8
"""Workload iterations per timed pass (amortizes timer granularity)."""

DEFAULT_RUNS = 5
"""Timed passes per workload; the best one is the throughput number."""

DEFAULT_GATE_RATIO = 0.8
"""Gate: current syscalls/sec must stay >= ratio * baseline (>20% drop
fails).  Override with ``ANCEPTION_ENGINE_GATE_RATIO`` for noisy CI."""

DEFAULT_BASELINE_PATH = os.path.normpath(os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    "..", "..", "..", "benchmarks", "BENCH_engine_baseline.json",
))


def _reset_workload(ctx, workload):
    """Undo the one non-idempotent effect so iterations replay cleanly.

    ``fileops`` leaves ``chaos-dir/moved.bin`` behind and its ``mkdir``
    would fail with EEXIST on replay; everything else opens with
    O_TRUNC and is idempotent.  The cleanup calls are themselves part
    of the measured stream — the census pass runs the identical loop.
    """
    if workload == "fileops":
        try:
            ctx.libc.unlink(ctx.data_path("chaos-dir/moved.bin"))
        except SyscallError:
            pass
        try:
            ctx.libc.rmdir(ctx.data_path("chaos-dir"))
        except SyscallError:
            pass


def _iterate(ctx, workload, n):
    fn = TRACE_WORKLOADS[workload]
    for _ in range(n):
        _reset_workload(ctx, workload)
        fn(ctx)


def _census(world, ctx, workload):
    """One observed steady-state iteration: (syscalls, simulated ns)."""
    metrics = MetricsRegistry()
    bus = TraceBus.install(world.clock)
    bus.subscribe(metrics.observe_record)
    try:
        with bus.capture():
            sim0 = world.clock.now_ns
            _iterate(ctx, workload, 1)
            sim_ns = world.clock.now_ns - sim0
    finally:
        bus.unsubscribe(metrics.observe_record)
    return metrics.syscalls_total.total(), sim_ns


def bench_workload(workload, inner=DEFAULT_INNER, runs=DEFAULT_RUNS,
                   timer=time.perf_counter_ns):
    """Measure one workload; returns its ``BENCH_engine.json`` entry."""
    if workload not in TRACE_WORKLOADS:
        known = ", ".join(sorted(TRACE_WORKLOADS))
        raise ValueError(f"unknown workload {workload!r} (known: {known})")
    world, ctx = boot_obs_world(read_cache=True, write_behind=True)
    _iterate(ctx, workload, 1)  # warm-up: reach the steady-state stream
    syscalls, sim_ns = _census(world, ctx, workload)
    walls = []
    for _ in range(runs):
        t0 = timer()
        _iterate(ctx, workload, inner)
        walls.append(timer() - t0)
    best = min(walls)
    rate = (syscalls * inner) / (best / 1e9) if best else 0.0
    return {
        "syscalls_per_iter": syscalls,
        "sim_us_per_iter": round(sim_ns / 1000, 3),
        "inner": inner,
        "runs": runs,
        "wall_ms": {
            "best": round(best / 1e6, 3),
            "median": round(statistics.median(walls) / 1e6, 3),
        },
        "syscalls_per_sec": round(rate, 1),
        "sim_time_ratio": round((sim_ns * inner) / best, 3) if best else 0.0,
    }


def bench_warm_boot():
    """Wall-clock cold-boot vs snapshot-restore comparison.

    Host-time-only telemetry for the warm-start story.  It is neither
    gated nor copied into the committed baseline — wall clock is
    machine-dependent, and simulated behavior across the snapshot
    boundary is covered by the snapshot-determinism test layer, not by
    this number.
    """
    from repro.world import _World

    # The cold path a snapshot replaces is boot PLUS the warmup run
    # that filled the caches and windows — matching the CLI's
    # ``snapshot --warmup`` semantics.
    t0 = time.perf_counter_ns()
    world, _ctx = boot_obs_world(read_cache=True, write_behind=True)
    run_traced("write4k", seed=0, world=world)
    cold_ns = time.perf_counter_ns() - t0
    t0 = time.perf_counter_ns()
    blob = world.snapshot()
    snapshot_ns = time.perf_counter_ns() - t0
    t0 = time.perf_counter_ns()
    _World.restore(blob)
    restore_ns = time.perf_counter_ns() - t0
    return {
        "cold_boot_ms": round(cold_ns / 1e6, 3),
        "snapshot_ms": round(snapshot_ns / 1e6, 3),
        "restore_ms": round(restore_ns / 1e6, 3),
        "blob_bytes": len(blob),
        "speedup": round(cold_ns / restore_ns, 2) if restore_ns else 0.0,
    }


def run_engine_bench(workloads=ENGINE_WORKLOADS, inner=None, runs=None):
    """The full ``BENCH_engine.json`` document for the gated workloads."""
    inner = inner or int(os.environ.get("ANCEPTION_ENGINE_INNER",
                                        DEFAULT_INNER))
    runs = runs or int(os.environ.get("ANCEPTION_ENGINE_RUNS",
                                      DEFAULT_RUNS))
    return {
        "schema": SCHEMA,
        "config": {
            "inner": inner,
            "runs": runs,
            "read_cache": True,
            "write_behind": True,
        },
        "warm_boot": bench_warm_boot(),
        "workloads": {
            workload: bench_workload(workload, inner=inner, runs=runs)
            for workload in workloads
        },
    }


# -- regression gate ---------------------------------------------------------

def gate_ratio():
    """The configured regression threshold (env-overridable)."""
    return float(os.environ.get("ANCEPTION_ENGINE_GATE_RATIO",
                                DEFAULT_GATE_RATIO))


def check_regression(report, baseline, min_ratio=None):
    """Failure strings for every workload below the baseline gate."""
    if min_ratio is None:
        min_ratio = gate_ratio()
    failures = []
    for workload, base in sorted(baseline.get("workloads", {}).items()):
        base_rate = base.get("syscalls_per_sec") or 0
        current = report.get("workloads", {}).get(workload)
        if current is None:
            failures.append(f"{workload}: missing from current report")
            continue
        rate = current.get("syscalls_per_sec") or 0
        if base_rate and rate < min_ratio * base_rate:
            failures.append(
                f"{workload}: {rate:.0f} syscalls/s fell below "
                f"{min_ratio:.0%} of the baseline {base_rate:.0f}"
            )
    return failures


def check_digests(report, baseline):
    """Failure strings for every workload whose sim-time digest drifted.

    Wall-clock throughput is machine-dependent and gated by ratio; the
    *simulated* digest — syscalls per iteration and simulated time per
    iteration — is deterministic and must match the committed baseline
    exactly.  A perf rebuild that changes either has changed behavior,
    not just speed.  Baselines predating the digest fields are skipped
    per-field (ratio gating still applies via :func:`check_regression`).
    """
    failures = []
    for workload, base in sorted(baseline.get("workloads", {}).items()):
        current = report.get("workloads", {}).get(workload)
        if current is None:
            continue  # check_regression already reports the absence
        for field in ("syscalls_per_iter", "sim_us_per_iter"):
            expected = base.get(field)
            if expected is None:
                continue
            actual = current.get(field)
            if actual != expected:
                failures.append(
                    f"{workload}: {field} drifted from the baseline "
                    f"({expected!r} -> {actual!r}); simulated behavior "
                    f"must stay byte-identical"
                )
    return failures


def baseline_summary(report):
    """The slim committed-baseline document for a bench report."""
    return {
        "schema": SCHEMA,
        "note": (
            "committed engine-throughput baseline; regenerate on a "
            "comparable machine with: anception bench-engine "
            "--update-baseline"
        ),
        "workloads": {
            workload: {
                "syscalls_per_sec": entry["syscalls_per_sec"],
                "syscalls_per_iter": entry["syscalls_per_iter"],
                "sim_us_per_iter": entry["sim_us_per_iter"],
            }
            for workload, entry in sorted(report["workloads"].items())
        },
    }


def load_baseline(path=DEFAULT_BASELINE_PATH):
    """The committed baseline dict, or ``None`` when absent."""
    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError:
        return None
