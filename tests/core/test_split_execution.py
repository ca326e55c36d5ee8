"""Split-execution semantics: fork, exec, mmap, msync, UID-change kill."""

import errno

import pytest

from repro.errors import ProcessKilled, SyscallError
from repro.kernel import vfs
from repro.kernel.memory import (
    MAP_ANONYMOUS,
    MAP_FIXED,
    PROT_EXEC,
    PROT_READ,
    PROT_WRITE,
)
from repro.kernel.process import Credentials
from repro.perf.costs import PAGE_SIZE


class TestForkMirroring:
    def test_fork_child_is_enrolled(self, anception_world, enrolled_ctx):
        child_pid = enrolled_ctx.libc.fork()
        child = anception_world.kernel.pids.require(child_pid)
        assert child.redirection_entry == 1
        assert child.proxy is not None
        assert child.launch_uid == enrolled_ctx.task.launch_uid

    def test_fork_child_proxy_inherits_remote_fds(self, anception_world,
                                                  enrolled_ctx):
        fd = enrolled_ctx.libc.open(
            enrolled_ctx.data_path("shared"), vfs.O_RDWR | vfs.O_CREAT
        )
        enrolled_ctx.libc.write(fd, b"parent-wrote")
        child_pid = enrolled_ctx.libc.fork()
        child = anception_world.kernel.pids.require(child_pid)
        child_libc = anception_world.libc_for(child)
        child_libc.lseek(fd, 0, vfs.SEEK_SET)
        assert child_libc.read(fd, 12) == b"parent-wrote"

    def test_native_fork_not_mirrored(self, native_world, native_ctx):
        child_pid = native_ctx.libc.fork()
        child = native_world.kernel.pids.require(child_pid)
        assert child.redirection_entry == 0
        assert child.proxy is None


class TestExecSemantics:
    def test_system_binary_execs_from_host(self, anception_world,
                                           enrolled_ctx):
        child_pid = enrolled_ctx.libc.fork()
        child = anception_world.kernel.pids.require(child_pid)
        image = anception_world.kernel.syscall(
            child, "execve", "/system/bin/sh", ()
        )
        assert child.exe_path == "/system/bin/sh"
        assert image.metadata["name"] == "sh"

    def test_user_code_execs_via_cache(self, anception_world, enrolled_ctx):
        from repro.kernel.loader import build_pseudo_elf

        blob = build_pseudo_elf("usergen", 0, {})
        path = enrolled_ctx.data_path("usergen")
        enrolled_ctx.libc.write_file(path, blob, mode=0o700)
        child_pid = enrolled_ctx.libc.fork()
        child = anception_world.kernel.pids.require(child_pid)
        anception_world.kernel.syscall(child, "execve", path, ())
        # executed from the host-side cache, not the requested path
        assert child.exe_path.startswith("/data/anception-exec-cache/")
        assert anception_world.anception.exec_cache.entries()

    def test_exec_of_missing_user_code_fails(self, anception_world,
                                             enrolled_ctx):
        with pytest.raises(SyscallError):
            enrolled_ctx.libc.execve(enrolled_ctx.data_path("ghost"))

    def test_exec_keeps_sandbox(self, anception_world, enrolled_ctx):
        child_pid = enrolled_ctx.libc.fork()
        child = anception_world.kernel.pids.require(child_pid)
        anception_world.kernel.syscall(child, "execve", "/system/bin/sh", ())
        assert child.redirection_entry == 1
        assert child.proxy is not None


class TestMmapSplit:
    def test_anonymous_mmap_content_stays_on_host(self, anception_world,
                                                  enrolled_ctx):
        base = enrolled_ctx.libc.mmap(
            PAGE_SIZE, PROT_READ | PROT_WRITE, MAP_ANONYMOUS
        )
        enrolled_ctx.task.address_space.write(base, b"host-only-bytes")
        proxy_space = enrolled_ctx.task.proxy.address_space
        vpn = base // PAGE_SIZE
        assert proxy_space.is_mapped(base)
        guest_view = proxy_space.read(
            base, 15, window=anception_world.cvm.kernel.frame_window,
            need_prot=0,
        )
        assert guest_view == b"\x00" * 15  # shape mirrored, content absent

    def test_null_page_mapping_mirrors_shape_only(self, anception_world,
                                                  enrolled_ctx):
        from repro.kernel.kernel import SHELLCODE_MAGIC

        enrolled_ctx.libc.mmap(
            PAGE_SIZE, PROT_READ | PROT_WRITE | PROT_EXEC,
            MAP_FIXED | MAP_ANONYMOUS, addr=0,
        )
        enrolled_ctx.task.address_space.write(
            0, SHELLCODE_MAGIC + b"payload", need_prot=0
        )
        proxy_space = enrolled_ctx.task.proxy.address_space
        assert proxy_space.is_mapped(0)
        guest_zero = proxy_space.read(
            0, 16, window=anception_world.cvm.kernel.frame_window,
            need_prot=0,
        )
        assert not guest_zero.startswith(SHELLCODE_MAGIC)

    def test_file_backed_mmap_of_cvm_file(self, anception_world,
                                          enrolled_ctx):
        path = enrolled_ctx.data_path("mapped.bin")
        enrolled_ctx.libc.write_file(path, b"M" * 100)
        fd = enrolled_ctx.libc.open(path, vfs.O_RDONLY)
        base = enrolled_ctx.libc.mmap(
            PAGE_SIZE, PROT_READ, 0, fd=fd, offset=0
        )
        content = enrolled_ctx.task.address_space.read(base, 100,
                                                       need_prot=0)
        assert content == b"M" * 100

    @pytest.mark.parametrize("lie", [b"X" * (3 * PAGE_SIZE), 12345],
                             ids=["oversize", "not-bytes"])
    def test_lying_pread_result_is_refused_before_mapping(
            self, monkeypatch, enrolled_ctx, lie):
        # The CVM answers the split mmap's pread64 with something that
        # does not fit the mapping.  Writing it would run past the new
        # mapping into the app's adjacent anonymous memory.
        from repro.core.proxy import ProxyManager

        libc = enrolled_ctx.libc
        space = enrolled_ctx.task.address_space
        neighbour = libc.mmap(2 * PAGE_SIZE, PROT_READ | PROT_WRITE,
                              MAP_ANONYMOUS)
        space.write(neighbour, b"S" * (2 * PAGE_SIZE))
        path = enrolled_ctx.data_path("small.bin")
        libc.write_file(path, b"F" * PAGE_SIZE)
        fd = libc.open(path, vfs.O_RDONLY)
        mapped_before = set(space.pages)
        honest = ProxyManager.execute

        def lying_execute(self, proxy, name, args, kwargs):
            if name == "pread64":
                return lie
            return honest(self, proxy, name, args, kwargs)

        monkeypatch.setattr(ProxyManager, "execute", lying_execute)
        with pytest.raises(SyscallError) as excinfo:
            libc.mmap(PAGE_SIZE, PROT_READ, 0, fd=fd, offset=0)
        assert excinfo.value.errno == errno.EIO
        assert set(space.pages) == mapped_before
        assert space.read(neighbour, 2 * PAGE_SIZE, need_prot=0) == (
            b"S" * (2 * PAGE_SIZE)
        )

    def test_msync_pushes_content_to_guest(self, anception_world,
                                           enrolled_ctx):
        base = enrolled_ctx.libc.mmap(
            PAGE_SIZE, PROT_READ | PROT_WRITE, MAP_ANONYMOUS
        )
        enrolled_ctx.task.address_space.write(base, b"sync-me")
        result = enrolled_ctx.libc.syscall("msync", base, 7)
        assert result == 0


_CREATE = vfs.O_RDWR | vfs.O_CREAT

# (id, CVM call to lie on, lie given the proxy fd the app already holds,
# app-side call given its context, its held fd and a second open fd)
_FD_LIES = [
    ("open-negative", "open", lambda held: -7,
     lambda ctx, fd, other: ctx.libc.open(ctx.data_path("new.bin"), _CREATE)),
    ("open-bool", "open", lambda held: True,
     lambda ctx, fd, other: ctx.libc.open(ctx.data_path("new.bin"), _CREATE)),
    ("open-str", "open", lambda held: "3",
     lambda ctx, fd, other: ctx.libc.open(ctx.data_path("new.bin"), _CREATE)),
    ("open-aliased", "open", lambda held: held,
     lambda ctx, fd, other: ctx.libc.open(ctx.data_path("new.bin"), _CREATE)),
    ("socket-aliased", "socket", lambda held: held,
     lambda ctx, fd, other: ctx.libc.socket()),
    ("pipe-list", "pipe", lambda held: [90, 91],
     lambda ctx, fd, other: ctx.libc.pipe()),
    ("pipe-triple", "pipe", lambda held: (90, 91, 92),
     lambda ctx, fd, other: ctx.libc.pipe()),
    ("pipe-same-twice", "pipe", lambda held: (90, 90),
     lambda ctx, fd, other: ctx.libc.pipe()),
    ("pipe-aliased", "pipe", lambda held: (90, held),
     lambda ctx, fd, other: ctx.libc.pipe()),
    ("pipe-negative", "pipe", lambda held: (90, -1),
     lambda ctx, fd, other: ctx.libc.pipe()),
    ("dup-aliased", "dup", lambda held: held,
     lambda ctx, fd, other: ctx.libc.syscall("dup", fd)),
    ("dup-negative", "dup", lambda held: -1,
     lambda ctx, fd, other: ctx.libc.syscall("dup", fd)),
    ("dup2-aliased", "dup", lambda held: held,
     lambda ctx, fd, other: ctx.libc.syscall("dup2", fd, other)),
    ("fcntl-dupfd-str", "fcntl", lambda held: "5",
     lambda ctx, fd, other: ctx.libc.syscall("fcntl", fd, 0, 0)),
    ("fcntl-dupfd-aliased", "fcntl", lambda held: held,
     lambda ctx, fd, other: ctx.libc.syscall("fcntl", fd, 0, 0)),
]


class TestFdContract:
    @pytest.mark.parametrize("cvm_call, lie, call",
                             [case[1:] for case in _FD_LIES],
                             ids=[case[0] for case in _FD_LIES])
    def test_lying_fd_result_is_refused_before_binding(
            self, monkeypatch, anception_world, enrolled_ctx, cvm_call,
            lie, call):
        # The CVM answers a fd-allocating call with something that is
        # not a fresh fd: a bad type, a negative number, the wrong pipe
        # shape, or a proxy fd the app already holds (binding it would
        # alias two host fds onto one CVM file).
        from repro.core.proxy import ProxyManager

        libc = enrolled_ctx.libc
        task = enrolled_ctx.task
        table = anception_world.anception.fd_tables[task.pid]
        fd = libc.open(enrolled_ctx.data_path("held.bin"), _CREATE)
        other = libc.open(enrolled_ctx.data_path("other.bin"), _CREATE)
        host_before = dict(task.fd_table)
        remote_before = {h: table.to_proxy(h) for h in table.remote_fds()}
        honest = ProxyManager.execute

        def lying_execute(self, proxy, name, args, kwargs):
            if name == cvm_call:
                return lie(remote_before[fd])
            return honest(self, proxy, name, args, kwargs)

        monkeypatch.setattr(ProxyManager, "execute", lying_execute)
        with pytest.raises(SyscallError) as excinfo:
            call(enrolled_ctx, fd, other)
        assert excinfo.value.errno == errno.EIO
        assert dict(task.fd_table) == host_before
        assert {h: table.to_proxy(h) for h in table.remote_fds()} \
            == remote_before


_COUNT_LIES = [
    ("read-oversize", "read", lambda args: b"X" * (args[1] + 8192),
     lambda libc, fd: libc.read(fd, 16)),
    ("read-int", "read", lambda args: args[1],
     lambda libc, fd: libc.read(fd, 16)),
    ("pread64-oversize", "pread64", lambda args: b"X" * (args[1] + 8192),
     lambda libc, fd: libc.pread(fd, 16, 0)),
    ("readv-entry-oversize", "read", lambda args: b"X" * (args[1] + 8192),
     lambda libc, fd: libc.readv(fd, [4, 4])),
    ("write-huge", "write", lambda args: 10 ** 9,
     lambda libc, fd: libc.write(fd, b"four")),
    ("write-negative", "write", lambda args: -5,
     lambda libc, fd: libc.write(fd, b"four")),
    ("write-str", "write", lambda args: "4",
     lambda libc, fd: libc.write(fd, b"four")),
    ("pwrite64-bool", "pwrite64", lambda args: True,
     lambda libc, fd: libc.pwrite(fd, b"x", 0)),
    ("batch-write-huge", "write", lambda args: 10 ** 9,
     lambda libc, fd: libc.syscall_batch([("write", fd, b"ab"),
                                          ("write", fd, b"cd")])),
]


class TestByteCountContract:
    @staticmethod
    def _scratch_libc(monkeypatch, cvm_call, lie, path, prefill=b"",
                      **world_kwargs):
        """Boot a world, open ``path`` (after writing ``prefill``), then
        make the CVM answer every ``cvm_call`` with ``lie(args)``."""
        from repro.core.proxy import ProxyManager
        from repro.world import AnceptionWorld
        from tests.conftest import ScratchApp

        running = AnceptionWorld(**world_kwargs).install_and_launch(
            ScratchApp())
        running.run()
        libc = running.ctx.libc
        fd = libc.open(running.ctx.data_path(path), _CREATE)
        if prefill:
            libc.write(fd, prefill)
            libc.lseek(fd, 0)
        honest = ProxyManager.execute

        def lying_execute(self, proxy, name, args, kwargs):
            if name == cvm_call:
                return lie(args)
            return honest(self, proxy, name, args, kwargs)

        monkeypatch.setattr(ProxyManager, "execute", lying_execute)
        return libc, fd

    @pytest.mark.parametrize("read_cache", [False, True],
                             ids=["cache-off", "cache-on"])
    @pytest.mark.parametrize("cvm_call, lie, call",
                             [case[1:] for case in _COUNT_LIES],
                             ids=[case[0] for case in _COUNT_LIES])
    def test_lying_byte_count_is_refused(self, monkeypatch, read_cache,
                                         cvm_call, lie, call):
        # The CVM answers a read longer than requested or of the wrong
        # type, or a write count outside [0, len(data)].
        libc, fd = self._scratch_libc(
            monkeypatch, cvm_call, lie, "count.bin",
            prefill=b"0123456789abcdef" * 2, read_cache=read_cache)
        with pytest.raises(SyscallError) as excinfo:
            call(libc, fd)
        assert excinfo.value.errno == errno.EIO
        assert f"CVM answered {cvm_call}" in str(excinfo.value)

    def test_window_drain_ledgers_the_refusal(self, monkeypatch):
        # A deferred write has already returned its optimistic count, so
        # the refusal lands in the window's ledger and surfaces at fsync.
        libc, fd = self._scratch_libc(monkeypatch, "write", lambda args: -5,
                                      "wb.bin", async_delegation=True)
        assert libc.write(fd, b"four") == 4
        with pytest.raises(SyscallError) as excinfo:
            libc.fsync(fd)
        assert excinfo.value.errno == errno.EIO
        assert "CVM answered write" in str(excinfo.value.__cause__)


class TestUidChangeKill:
    def test_setuid_change_kills_app(self, anception_world, enrolled_ctx):
        task = enrolled_ctx.task
        # Root-capable change is needed to move UID; model a service
        # exploit granting it by swapping credentials to root first.
        task.credentials = Credentials(0)
        with pytest.raises(ProcessKilled):
            enrolled_ctx.libc.setuid(4242)
        assert not task.is_alive()
        assert task.pid in anception_world.anception.killed_apps

    def test_setuid_to_same_uid_is_fine(self, enrolled_ctx):
        uid = enrolled_ctx.task.credentials.uid
        assert enrolled_ctx.libc.setuid(uid) == 0
        assert enrolled_ctx.task.is_alive()

    def test_native_setuid_not_killed(self, native_ctx):
        uid = native_ctx.task.credentials.uid
        assert native_ctx.libc.setuid(uid) == 0
        assert native_ctx.task.is_alive()


class TestExecCacheLifecycle:
    def test_stage_closes_its_open_file(self, anception_world):
        cache = anception_world.anception.exec_cache
        staged = []
        real_open = cache.kernel.vfs.open

        def spying_open(*args, **kwargs):
            open_file = real_open(*args, **kwargs)
            staged.append(open_file)
            return open_file

        cache.kernel.vfs.open = spying_open
        try:
            path = cache.stage("/data/app/gen.bin", b"\x7fELFgen")
        finally:
            cache.kernel.vfs.open = real_open
        assert len(staged) == 1
        # the regression: stage used to leak the handle (refcount stuck
        # at 1), pinning every staged executable's description forever
        assert staged[0].refcount == 0
        assert path in [f"/data/anception-exec-cache/{n}"
                        for n in cache.entries()]

    def test_stage_closes_even_when_the_write_raises(self, anception_world):
        cache = anception_world.anception.exec_cache
        staged = []
        real_open = cache.kernel.vfs.open

        def spying_open(*args, **kwargs):
            open_file = real_open(*args, **kwargs)
            staged.append(open_file)
            return open_file

        cache.kernel.vfs.open = spying_open
        try:
            with pytest.raises(TypeError):
                cache.stage("/data/app/bad.bin", object())
        finally:
            cache.kernel.vfs.open = real_open
        assert staged[0].refcount == 0
