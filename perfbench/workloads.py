"""The benchmark's three closed-loop workloads and their one world adapter.

Each workload is a single client (one process, one thread) driven by a
generator seeded from ``--seed``.  An *op* is one app-level transaction;
the next op starts only after the previous one returned.  The program
under test sees only the generated calls, made through its public API:
:class:`repro.world.AnceptionWorld`, ``install_and_launch``,
``ctx.libc.*`` and ``ctx.call_service*``.

Every workload keeps its own model of the bytes the program should hand
back and checks each result against it; a mismatch raises
:class:`WrongResult`, which the runner counts as a failed op.
"""

from __future__ import annotations

import random
import string
from zlib import crc32

from repro.android.app import App, AppManifest
from repro.kernel import vfs
from repro.workloads.fleet import FleetApp
from repro.world import AnceptionWorld


PAGE = 4096

FAST = {"read_cache": True, "async_delegation": True,
        "write_behind_depth": 8, "binder_ring": True,
        "binder_ring_depth": 4}
"""The tools' "fast" delegation config (``perf.fleet_bench._boot``)."""

CONFIGS = {
    "paper_sync": {},
    "fleet_async": dict(FAST, cvms=4, placement="by-uid"),
    "read_mix": dict(FAST, cache_pages=256),
}
"""World config per workload, as keyword arguments of the adapter."""


def boot_world(config):
    """The one world adapter: every workload boots its world here.

    When the loose keyword arguments of ``AnceptionWorld`` give way to a
    config object, this is the only function that has to change.
    """
    return AnceptionWorld(**config)


class WrongResult(Exception):
    """The program returned something other than the workload's model."""


def _expect(what, got, want):
    if got != want:
        raise WrongResult(f"{what}: got {got!r:.80}, want {want!r:.80}")


def _token(rng, lo, hi):
    return "".join(rng.choice(string.ascii_lowercase)
                   for _ in range(rng.randint(lo, hi)))


class _BenchApp(App):
    """A minimal enrolled app; all traffic comes from the workload."""

    def __init__(self, package):
        self._manifest = AppManifest(package)

    @property
    def manifest(self):
        return self._manifest

    def main(self, ctx):
        return {"status": "ready"}


class Workload:
    """One closed-loop client: set up a world, then generate and run ops.

    ``make_op`` draws the next op's inputs from the seeded generator;
    ``run_op`` issues them and returns how many app syscalls it made.
    Generation is kept out of ``run_op`` so the runner times only the
    program's work and the result checks.
    """

    name = ""
    why = ""
    warm_ops = 0
    window_ops = 1000
    """Ops in the deterministic window (see ``run.py``)."""

    def __init__(self, seed):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.world = None

    def boot(self):
        self.world = boot_world(CONFIGS[self.name])

    def install(self):
        raise NotImplementedError

    def warm(self):
        for _ in range(self.warm_ops):
            self.run_op(self.make_op())

    def make_op(self):
        raise NotImplementedError

    def run_op(self, op):
        raise NotImplementedError


class PaperSync(Workload):
    """The paper's synchronous delegation: every call pays the full path."""

    name = "paper_sync"
    why = ("library default (no cache, no windows, no binder ring): every "
           "delegated call takes the full per-call path with one doorbell "
           "pair")
    warm_ops = 64

    def install(self):
        running = self.world.install_and_launch(
            _BenchApp("com.bench.papersync"))
        running.run()
        self.ctx = running.ctx
        self.pid = self.ctx.task.pid
        self.uid = self.ctx.libc.getuid()
        # The first binder call opens /dev/binder; pay that here.
        self.ctx.call_service("location", "get_fix")

    def make_op(self):
        rng = self.rng
        return (_token(rng, 4, 16), _token(rng, 4, 16),
                rng.randbytes(PAGE), rng.randrange(100, 100_000))

    def run_op(self, op):
        name, dname, payload, interval = op
        libc = self.ctx.libc
        path = self.ctx.data_path(f"{name}.bin")
        directory = self.ctx.data_path(dname)
        moved = f"{directory}/{name}.bin"
        _expect("getpid", libc.getpid(), self.pid)
        fd = libc.open(path, vfs.O_RDWR | vfs.O_CREAT | vfs.O_TRUNC)
        _expect("write", libc.write(fd, payload), PAGE)
        _expect("pread", libc.pread(fd, PAGE, 0), payload)
        _expect("fstat", libc.fstat(fd).st_size, PAGE)
        libc.close(fd)
        _expect("stat", libc.stat(path).st_size, PAGE)
        libc.mkdir(directory)
        libc.rename(path, moved)
        _expect("stat moved", libc.stat(moved).st_size, PAGE)
        fd = libc.open(moved, vfs.O_RDONLY)
        _expect("read", libc.read(fd, PAGE), payload)
        libc.close(fd)
        libc.unlink(moved)
        libc.rmdir(directory)
        reply = self.ctx.call_service("location", "request_updates",
                                      {"interval_ms": interval})
        _expect("binder reply", reply,
                {"status": "registered", "interval_ms": interval})
        _expect("getuid", libc.getuid(), self.uid)
        return 17


class FleetAsync(Workload):
    """48 apps on 4 CVM lanes: staged writes and oneway binder bursts."""

    name = "fleet_async"
    why = ("48 apps on 4 by-uid CVM lanes with write-behind and a binder "
           "ring: async windows, batched drains, pool routing and clock "
           "overlap carry the work")
    apps = 48
    writes = 8
    oneways = 4
    readback_every = 4
    """Rounds between an app's read-backs; staggered across apps so
    fences spread evenly over a round."""
    payload = 1024
    warm_ops = apps
    window_ops = 20 * apps

    def install(self):
        self.members = []
        for index in range(self.apps):
            running = self.world.install_and_launch(FleetApp(index))
            running.run()
            self.members.append(running.ctx)
        self.fds = []
        for ctx in self.members:
            self.fds.append(ctx.libc.open(
                ctx.data_path("stream.bin"),
                vfs.O_RDWR | vfs.O_CREAT | vfs.O_TRUNC))
        self.crcs = [0] * self.apps
        self.next_op = 0

    def make_op(self):
        rng = self.rng
        index = self.next_op % self.apps
        rnd = self.next_op // self.apps
        self.next_op += 1
        payloads = [rng.randbytes(self.payload) for _ in range(self.writes)]
        tags = [_token(rng, 2, 12) for _ in range(self.oneways)]
        readback = (rnd + index) % self.readback_every \
            == self.readback_every - 1
        return index, rnd, payloads, tags, readback

    def run_op(self, op):
        index, rnd, payloads, tags, readback = op
        ctx = self.members[index]
        libc = ctx.libc
        fd = self.fds[index]
        crc = self.crcs[index]
        for payload in payloads:
            _expect("staged write", libc.write(fd, payload), self.payload)
            crc = crc32(payload, crc)
        for tag in tags:
            _expect("oneway", ctx.call_service_oneway(
                "location", "get_fix", {"round": rnd, "tag": tag}), None)
        calls = self.writes + self.oneways
        if not readback:
            self.crcs[index] = crc
            return calls
        # Read back everything since the last rewind, one round's bytes
        # per pread (a descriptor must fit the shared-page window), then
        # rewind so the simulated file stays bounded.
        length = libc.lseek(fd, 0, vfs.SEEK_CUR)
        chunk = self.writes * self.payload
        back = crc32(b"")
        for offset in range(0, length, chunk):
            back = crc32(libc.pread(fd, chunk, offset), back)
        _expect("read-back crc", back, crc)
        _expect("rewind", libc.lseek(fd, 0), 0)
        self.crcs[index] = 0
        return calls + 2 + length // chunk


class ReadMix(Workload):
    """Random 4 KiB reads beside writes through a half-size read cache."""

    name = "read_mix"
    why = ("one app, 4 files x 128 pages against a 256-page read cache: "
           "7 in 8 ops are random 4 KiB preads, 1 in 8 are pwrites that "
           "stage and force a fence on the next read")
    files = 4
    pages = 128
    warm_ops = 1024
    window_ops = 16000
    """Long enough that the seeded hit ratio, and so the sim time per
    op, varies by about 1% between seeds."""

    def install(self):
        running = self.world.install_and_launch(
            _BenchApp("com.bench.readmix"))
        running.run()
        self.ctx = running.ctx
        libc = self.ctx.libc
        self.fds = []
        self.model = []
        for number in range(self.files):
            fd = libc.open(self.ctx.data_path(f"mix-{number}.bin"),
                           vfs.O_RDWR | vfs.O_CREAT | vfs.O_TRUNC)
            content = bytearray(self.rng.randbytes(self.pages * PAGE))
            for page in range(self.pages):
                libc.write(fd, bytes(content[page * PAGE:(page + 1) * PAGE]))
            self.fds.append(fd)
            self.model.append(content)
        libc.fence()

    def make_op(self):
        rng = self.rng
        number = rng.randrange(self.files)
        page = rng.randrange(self.pages)
        payload = rng.randbytes(PAGE) if rng.randrange(8) == 0 else None
        return number, page, payload

    def run_op(self, op):
        number, page, payload = op
        libc = self.ctx.libc
        fd = self.fds[number]
        offset = page * PAGE
        model = self.model[number]
        if payload is None:
            _expect("pread", libc.pread(fd, PAGE, offset),
                    bytes(model[offset:offset + PAGE]))
        else:
            _expect("pwrite", libc.pwrite(fd, payload, offset), PAGE)
            model[offset:offset + PAGE] = payload
        return 1


WORKLOADS = {cls.name: cls for cls in (PaperSync, FleetAsync, ReadMix)}
