"""msync write-back of file-backed split mappings (Section III-D)."""

import pytest

from repro.kernel import vfs
from repro.kernel.memory import (
    MAP_ANONYMOUS, MAP_FIXED, MAP_PRIVATE, PROT_READ, PROT_WRITE,
)
from repro.kernel.process import Credentials
from repro.perf.costs import PAGE_SIZE


ROOT = Credentials(0)


@pytest.fixture
def mapped(anception_world, enrolled_ctx):
    """A file-backed split mapping of a CVM file."""
    path = enrolled_ctx.data_path("mapped.db")
    enrolled_ctx.libc.write_file(path, b"ORIGINAL" + b"\x00" * 100)
    fd = enrolled_ctx.libc.open(path, vfs.O_RDWR)
    base = enrolled_ctx.libc.mmap(PAGE_SIZE, PROT_READ | PROT_WRITE, 0,
                                  fd=fd, offset=0)
    return path, fd, base


class TestWriteBack:
    def test_msync_pushes_modifications_to_cvm_file(self, anception_world,
                                                    enrolled_ctx, mapped):
        path, _fd, base = mapped
        enrolled_ctx.task.address_space.write(base, b"MODIFIED")
        enrolled_ctx.libc.syscall("msync", base, 8)
        inode = anception_world.cvm.kernel.vfs.resolve(path, ROOT)
        assert bytes(inode.data[:8]) == b"MODIFIED"

    def test_without_msync_file_unchanged(self, anception_world,
                                          enrolled_ctx, mapped):
        path, _fd, base = mapped
        enrolled_ctx.task.address_space.write(base, b"MODIFIED")
        inode = anception_world.cvm.kernel.vfs.resolve(path, ROOT)
        assert bytes(inode.data[:8]) == b"ORIGINAL"

    def test_partial_msync_at_offset(self, anception_world, enrolled_ctx,
                                     mapped):
        path, _fd, base = mapped
        enrolled_ctx.task.address_space.write(base + 4, b"XY")
        enrolled_ctx.libc.syscall("msync", base + 4, 2)
        inode = anception_world.cvm.kernel.vfs.resolve(path, ROOT)
        assert bytes(inode.data[:8]) == b"ORIGXYAL"

    def test_anonymous_msync_still_fine(self, enrolled_ctx):
        base = enrolled_ctx.libc.mmap(PAGE_SIZE, PROT_READ | PROT_WRITE,
                                      MAP_ANONYMOUS)
        enrolled_ctx.task.address_space.write(base, b"anon")
        assert enrolled_ctx.libc.syscall("msync", base, 4) == 0

    def test_reread_after_msync_sees_new_content(self, enrolled_ctx,
                                                 mapped):
        path, fd, base = mapped
        enrolled_ctx.task.address_space.write(base, b"MODIFIED")
        enrolled_ctx.libc.syscall("msync", base, 8)
        assert enrolled_ctx.libc.pread(fd, 8, 0) == b"MODIFIED"


MAP_SHARED = 0x01


class TestMappingLifetime:
    """Write-back state ends with the mapping it describes."""

    def _map_file(self, ctx, name, content):
        path = ctx.data_path(name)
        ctx.libc.write_file(path, content)
        fd = ctx.libc.open(path, vfs.O_RDWR)
        base = ctx.libc.mmap(len(content), PROT_READ | PROT_WRITE,
                             MAP_SHARED, fd=fd, offset=0)
        return path, base

    def test_anonymous_remap_after_munmap_is_not_written_back(
            self, anception_world, enrolled_ctx):
        libc = enrolled_ctx.libc
        path, base = self._map_file(enrolled_ctx, "remap.bin",
                                    b"A" * PAGE_SIZE)
        assert libc.munmap(base, PAGE_SIZE) == 0
        addr = libc.mmap(PAGE_SIZE, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS | MAP_FIXED, addr=base)
        assert addr == base
        enrolled_ctx.task.address_space.write(addr, b"Z" * 16)
        assert libc.syscall("msync", addr, 16) == 0
        inode = anception_world.cvm.kernel.vfs.resolve(path, ROOT)
        assert bytes(inode.data) == b"A" * PAGE_SIZE

    def test_mmap_munmap_cycles_leave_no_state(self, anception_world,
                                               enrolled_ctx):
        for i in range(20):
            _path, base = self._map_file(enrolled_ctx, f"cycle-{i}.bin",
                                         b"c" * PAGE_SIZE)
            enrolled_ctx.libc.munmap(base, PAGE_SIZE)
        assert anception_world.anception._file_mappings == {}

    def test_munmap_of_the_middle_keeps_the_outer_pages(
            self, anception_world, enrolled_ctx):
        libc = enrolled_ctx.libc
        content = b"0" * PAGE_SIZE + b"1" * PAGE_SIZE + b"2" * PAGE_SIZE
        path, base = self._map_file(enrolled_ctx, "three.bin", content)
        libc.munmap(base + PAGE_SIZE, PAGE_SIZE)
        space = enrolled_ctx.task.address_space
        space.write(base, b"L")
        space.write(base + 2 * PAGE_SIZE, b"R")
        libc.syscall("msync", base, 1)
        libc.syscall("msync", base + 2 * PAGE_SIZE, 1)
        data = bytes(anception_world.cvm.kernel.vfs.resolve(path, ROOT).data)
        assert data == (b"L" + b"0" * (PAGE_SIZE - 1) + b"1" * PAGE_SIZE
                        + b"R" + b"2" * (PAGE_SIZE - 1))

    def test_exit_drops_the_process_mappings(self, anception_world,
                                             enrolled_ctx):
        self._map_file(enrolled_ctx, "exit.bin", b"e" * PAGE_SIZE)
        layer = anception_world.anception
        assert enrolled_ctx.task.pid in layer._file_mappings
        enrolled_ctx.libc.syscall("exit", 0)
        assert enrolled_ctx.task.pid not in layer._file_mappings
