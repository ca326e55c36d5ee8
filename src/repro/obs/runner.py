"""Canned traced workloads for the ``anception trace/metrics`` commands.

Each workload runs a short, deterministic call stream on a freshly
booted :class:`~repro.world.AnceptionWorld` app — the same streams the
Table I microbenchmarks time, reduced to a handful of calls so the
resulting trace is readable in Perfetto.  ``run_traced`` can also run
with observation off, which is how the side-effect-freedom guarantee is
tested: elapsed simulated time is identical either way.
"""

from __future__ import annotations

from repro.android.app import App, AppManifest
from repro.core.config import PAPER
from repro.kernel import vfs
from repro.obs.bus import TraceBus
from repro.obs.export import make_trace_id
from repro.obs.metrics import MetricsRegistry
from repro.workloads.fleet import workload_fleet
from repro.world import AnceptionWorld


class _ObsApp(App):
    manifest = AppManifest("com.obs.trace")

    def main(self, ctx):
        return {"status": "ready"}


def _workload_getpid(ctx):
    for _ in range(4):
        ctx.libc.getpid()


def _workload_write4k(ctx):
    fd = ctx.libc.open(
        ctx.data_path("obs-write.bin"), vfs.O_WRONLY | vfs.O_CREAT
    )
    ctx.libc.write(fd, b"w" * 4096)
    ctx.libc.close(fd)


def _workload_read4k(ctx):
    fd = ctx.libc.open(
        ctx.data_path("obs-read.bin"),
        vfs.O_RDWR | vfs.O_CREAT | vfs.O_TRUNC,
    )
    ctx.libc.write(fd, b"r" * 4096)
    ctx.libc.pread(fd, 4096, 0)
    ctx.libc.close(fd)


def _workload_binder(ctx):
    ctx.call_service("location", "get_fix", {"blob": "x" * 112})


def _workload_fileops(ctx):
    """A file-heavy stream (the chaos harness's default prey).

    Every step opens, uses, and closes its own descriptors, so a fault
    that costs the CVM its open files mid-stream (proxy kill, container
    reboot) stays contained to the step it hit.
    """
    for i in range(6):
        fd = ctx.libc.open(
            ctx.data_path(f"chaos-{i}.bin"),
            vfs.O_RDWR | vfs.O_CREAT | vfs.O_TRUNC,
        )
        ctx.libc.write(fd, bytes([0x40 + i]) * 512)
        ctx.libc.pread(fd, 256, 0)
        ctx.libc.close(fd)
    ctx.libc.mkdir(ctx.data_path("chaos-dir"))
    ctx.libc.rename(
        ctx.data_path("chaos-0.bin"), ctx.data_path("chaos-dir/moved.bin")
    )
    ctx.libc.stat(ctx.data_path("chaos-dir/moved.bin"))
    ctx.libc.unlink(ctx.data_path("chaos-1.bin"))
    fd = ctx.libc.open(ctx.data_path("chaos-2.bin"), vfs.O_RDONLY)
    ctx.libc.read(fd, 512)
    ctx.libc.close(fd)
    ctx.libc.listdir(ctx.data_path("chaos-dir"))


def _workload_ipc(ctx):
    """Pipes and System V shared memory across the delegation boundary."""
    read_fd, write_fd = ctx.libc.pipe()
    ctx.libc.write(write_fd, b"chaos-pipe-payload")
    ctx.libc.read(read_fd, 64)
    ctx.libc.close(write_fd)
    ctx.libc.close(read_fd)
    shmid = ctx.libc.shmget(0x51, 8192)
    addr = ctx.libc.shmat(shmid)
    ctx.libc.shmdt(addr)


def _workload_table1(ctx):
    """One pass over the Table I rows: null call, 4K write/read, binder."""
    _workload_getpid(ctx)
    _workload_write4k(ctx)
    _workload_read4k(ctx)
    _workload_binder(ctx)


def _workload_batchio(ctx):
    """Exercise the ring's batched paths: writev, readv, syscall_batch.

    A 64-entry writev rides one doorbell pair instead of 64; the readv
    pulls the same bytes back; the closing ``syscall_batch`` window
    coalesces eight consecutive same-fd writes into one descriptor.
    """
    fd = ctx.libc.open(
        ctx.data_path("batch.bin"),
        vfs.O_RDWR | vfs.O_CREAT | vfs.O_TRUNC,
    )
    buffers = [bytes([0x61 + (i % 26)]) * 64 for i in range(64)]
    ctx.libc.writev(fd, buffers)
    ctx.libc.lseek(fd, 0)
    ctx.libc.readv(fd, [64] * 64)
    ctx.libc.syscall_batch(
        [("write", fd, f"tail-{i}".encode()) for i in range(8)]
    )
    ctx.libc.close(fd)


def _workload_writeburst(ctx):
    """A write burst with a fence mid-stream and an fsync at the end.

    With write-behind on, the burst stages into async windows (visible
    as ``wb-submit``/``wb-drain`` records) and the fence/fsync show the
    drain-and-wait barrier; with it off the same stream degenerates to
    the classic per-call shape — the traces diff cleanly.
    """
    fd = ctx.libc.open(
        ctx.data_path("burst.bin"),
        vfs.O_RDWR | vfs.O_CREAT | vfs.O_TRUNC,
    )
    block = b"b" * 4096
    for _ in range(48):
        ctx.libc.write(fd, block)
    ctx.libc.fence(fd)
    for _ in range(16):
        ctx.libc.write(fd, block)
    ctx.libc.fsync(fd)
    ctx.libc.pread(fd, 4096, 0)
    ctx.libc.close(fd)


def _workload_binderburst(ctx):
    """A burst of oneway service calls with a sync reply mid-stream.

    With the binder ring on, the oneways stage into batched windows
    (visible as ``binder-submit``/``binder-drain`` records) and the
    reply-carrying calls show the fence-on-reply barrier; the closing
    large parcel rides the shared-memory bulk-parcel path.  With the
    ring off the same stream degenerates to per-call redirection — the
    traces diff cleanly.
    """
    for _ in range(12):
        ctx.call_service_oneway("location", "get_fix", {"blob": "x" * 96})
    ctx.call_service("location", "get_fix", {"blob": "x" * 96})
    for _ in range(12):
        ctx.call_service_oneway("sensor", "read_accelerometer", {})
    ctx.call_service("location", "get_fix", {"blob": "x" * 8192})
    ctx.libc.fence()


TRACE_WORKLOADS = {
    "table1": _workload_table1,
    "getpid": _workload_getpid,
    "write4k": _workload_write4k,
    "read4k": _workload_read4k,
    "binder": _workload_binder,
    "fileops": _workload_fileops,
    "ipc": _workload_ipc,
    "batchio": _workload_batchio,
    "writeburst": _workload_writeburst,
    "binderburst": _workload_binderburst,
    "fleet": workload_fleet,
}


def boot_obs_world(config=PAPER, app=_ObsApp):
    """Boot an AnceptionWorld with ``app`` launched; returns (world, ctx).

    The shared setup for :func:`run_traced`, the chaos harness, the
    ``snapshot``/``resume`` commands and tests that drive workload
    bodies against a pre-booted world.  ``config`` is the world's
    :class:`~repro.core.config.DelegationConfig`.
    """
    world = AnceptionWorld(config=config)
    running = world.install_and_launch(app())
    running.run()
    return world, running.ctx


def resolve_workload(workload):
    """``(name, fn)`` for a traced-workload name or any callable."""
    if callable(workload):
        return getattr(workload, "__name__", "custom"), workload
    fn = TRACE_WORKLOADS.get(workload)
    if fn is None:
        known = ", ".join(sorted(TRACE_WORKLOADS))
        raise ValueError(f"unknown workload {workload!r} (known: {known})")
    return workload, fn


def warm_start(name, fn, world=None, config=PAPER, app=_ObsApp):
    """``(world, target)`` to run workload ``fn`` on.

    ``world`` warm-starts on an already-booted (typically
    snapshot-restored) world, else a fresh ``config`` world is booted
    with ``app`` launched.  Workloads that set ``needs_world = True``
    (the fleet driver) install and run their own apps, so their target
    is the world; every other workload runs in the context of the most
    recently launched app.
    """
    if world is None:
        world, _ctx = boot_obs_world(config, app)
    if getattr(fn, "needs_world", False):
        return world, world
    if not world.zygote.launched:
        raise ValueError(f"workload {name!r} runs in an app, but the "
                         "world has no launched app")
    return world, world.zygote.launched[-1].ctx


def observed_run(world, run, observe=True):
    """Call ``run()`` on ``world``; returns (elapsed_ns, records, metrics).

    The metrics registry is built first, so its counters are the run's
    own.  ``observe`` wraps the run in a bus capture whose records build
    the histograms; without it no bus is installed and records are
    ``[]``.  Observing never advances the clock, so ``elapsed_ns`` is
    the same either way.
    """
    metrics = MetricsRegistry(world)
    start_ns = world.clock.now_ns
    if observe:
        with TraceBus.install(world.clock).capture() as capture:
            run()
        records = capture.records
    else:
        run()
        records = []
    return world.clock.now_ns - start_ns, records, metrics


class TraceResult:
    """Everything one traced run produced."""

    def __init__(self, workload, seed, trace_id, elapsed_ns, records,
                 metrics, world):
        self.workload = workload
        self.seed = seed
        self.trace_id = trace_id
        self.elapsed_ns = elapsed_ns
        self.records = records
        self.metrics = metrics
        self.world = world


def run_traced(workload, seed=0, observe=True, config=PAPER, world=None):
    """Boot an Anception world, run ``workload`` under the bus.

    ``workload`` is a name from :data:`TRACE_WORKLOADS` or any callable.
    ``observe=False`` runs the identical stream with no capture active —
    the observability-is-free baseline; its counters still read, only
    the histograms stay empty.  ``config`` is the booted world's
    :class:`~repro.core.config.DelegationConfig`.  ``world`` warm-starts
    the run on an already-booted world (see :func:`warm_start`);
    ``config`` is ignored in that case — the world carries its own.
    """
    name, fn = resolve_workload(workload)
    world, target = warm_start(name, fn, world, config)
    elapsed_ns, records, metrics = observed_run(
        world, lambda: fn(target), observe)
    return TraceResult(
        workload=name,
        seed=seed,
        trace_id=make_trace_id(name, seed),
        elapsed_ns=elapsed_ns,
        records=records,
        metrics=metrics,
        world=world,
    )
