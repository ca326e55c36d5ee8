"""World state stays bounded under a steady stream of delegated calls.

No structure may grow per syscall without a bound: once the bounded
logs (``RingLog``, ``LOG_LIMIT`` entries) are full, a world that keeps
running the same kind of op must pickle to the same size, give or take
the few bytes that growing integers (inode numbers, counters) add.
"""

from __future__ import annotations

import pickle

from repro.kernel import vfs
from repro.obs.ringlog import LOG_LIMIT

PAGE = 4096
FILL_OPS = LOG_LIMIT + 88
"""Each op makes one delegated binder call, so this many ops fill the
CVM binder driver's transaction log (the slowest ring to fill)."""
MORE_OPS = 600
SLACK_BYTES = 64


def _op(ctx, i):
    """One paper_sync-shaped op: file, directory and binder traffic."""
    libc = ctx.libc
    path = ctx.data_path(f"f{i}.bin")
    directory = ctx.data_path(f"d{i}")
    moved = f"{directory}/f{i}.bin"
    payload = bytes([i % 251]) * PAGE
    fd = libc.open(path, vfs.O_RDWR | vfs.O_CREAT | vfs.O_TRUNC)
    assert libc.write(fd, payload) == PAGE
    assert libc.pread(fd, PAGE, 0) == payload
    assert libc.fstat(fd).st_size == PAGE
    libc.close(fd)
    assert libc.stat(path).st_size == PAGE
    libc.mkdir(directory)
    libc.rename(path, moved)
    fd = libc.open(moved, vfs.O_RDONLY)
    assert libc.read(fd, PAGE) == payload
    libc.close(fd)
    libc.unlink(moved)
    libc.rmdir(directory)
    reply = ctx.call_service("location", "request_updates",
                             {"interval_ms": 100 + i})
    assert reply == {"status": "registered", "interval_ms": 100 + i}


def test_pickled_world_stops_growing_once_the_rings_are_full(
        anception_world, enrolled_ctx):
    for i in range(FILL_OPS):
        _op(enrolled_ctx, i)
    full = len(pickle.dumps(anception_world, protocol=4))
    for i in range(FILL_OPS, FILL_OPS + MORE_OPS):
        _op(enrolled_ctx, i)
    later = len(pickle.dumps(anception_world, protocol=4))
    assert abs(later - full) <= SLACK_BYTES, (full, later)
