"""Hot-path rebuild properties: the fast engine is the same engine.

The slab-pooled/slotted/fast-pathed hot path (PR 9) is a pure host-side
speedup, so two families of properties pin it:

* **Seed-world equivalence** — the simulated behavior of every gated
  workload (fileops/batchio/writeburst/fleet, at 1 and 4 CVMs) is
  digested as (elapsed sim ns, charge count, sha256 of the full traced
  charge stream) and compared against the digests captured on the
  pre-rebuild engine.  Any drift — one extra charge, one nanosecond, one
  reordered reason string — fails; zero-copy buffers and dormant fast
  paths must be invisible to simulated time.
* **Slab aliasing safety** — a recycled slab releases every exported
  view, so a reference held past its window raises ``ValueError``
  instead of silently observing recycled bytes, across arbitrary
  acquire/view/recycle interleavings.
"""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SyscallError
from repro.obs.runner import TRACE_WORKLOADS, boot_obs_world
from repro.perf.slab import DEFAULT_SLAB_BYTES, SlabPool, zeros


# Captured on the pre-rebuild (seed) engine with _digest() below; the
# rebuilt hot path must reproduce every field exactly.
SEED_DIGESTS = {
    ("fileops", 1): (15832016, 802, "6e2cfeacc126ffc4"),
    ("fileops", 4): (15832016, 802, "15dc1f010b38cb48"),
    ("batchio", 1): (15720002, 2320, "19d2fe5ee656f1c3"),
    ("batchio", 4): (15720002, 2320, "96dc91844dcdcaef"),
    ("writeburst", 1): (12300804, 1776, "3b8910aa670330ba"),
    ("writeburst", 4): (12300804, 1776, "d7a4c4394c4cc041"),
    ("fleet", 1): (19230263208, 30336, "0220113bb1ba74a9"),
    ("fleet", 4): (19230263208, 30336, "351c133f39302be6"),
}


BINDER_DIGESTS = {
    ("binderburst", 1): (495566086, 659, "a9556aafbb57f939"),
    ("binderburst", 4): (495566086, 659, "a9556aafbb57f939"),
}
"""The batched-binder window path: the same digest, booted with the
binder ring on as well as write-behind."""


def _reset_workload(ctx, workload):
    """Undo the one non-idempotent effect so iterations replay cleanly.

    ``fileops`` leaves ``chaos-dir/moved.bin`` behind and its ``mkdir``
    would fail with EEXIST on replay; everything else opens with
    O_TRUNC and is idempotent.  The cleanup calls are themselves part
    of the digested stream.
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


def _digest(workload, cvms, binder_ring=False):
    """(elapsed sim ns, charge count, charge-stream sha) for a workload.

    Two traced steady-state iterations (after one warm-up inside
    ``boot_obs_world``'s fresh world) for the app workloads; the fleet
    driver runs once against the whole world.  Tracing is live for the
    whole window, so the digest covers the *instrumented* code path —
    the one the dormant fast paths must never diverge from.
    """
    world, ctx = boot_obs_world(read_cache=True, write_behind=True,
                                binder_ring=binder_ring, cvms=cvms)
    fn = TRACE_WORKLOADS[workload]
    clock = world.clock
    marker = clock.enable_trace()
    start = clock.now_ns
    if getattr(fn, "needs_world", False):
        fn(world)
    else:
        _iterate(ctx, workload, 1)
        _iterate(ctx, workload, 1)
    elapsed = clock.now_ns - start
    charges = clock.charges_since(marker)
    clock.disable_trace()
    sha = hashlib.sha256(repr(charges).encode()).hexdigest()[:16]
    return elapsed, len(charges), sha


@pytest.mark.parametrize(("workload", "cvms"), sorted(SEED_DIGESTS))
def test_sim_digest_matches_seed_world(workload, cvms):
    assert _digest(workload, cvms) == SEED_DIGESTS[(workload, cvms)]


@pytest.mark.parametrize(("workload", "cvms"), sorted(BINDER_DIGESTS))
def test_sim_digest_matches_binder_window_pin(workload, cvms):
    assert _digest(workload, cvms, binder_ring=True) \
        == BINDER_DIGESTS[(workload, cvms)]


def test_dormant_binder_windows_elapse_identical_sim_time():
    """Untraced binder-window drains land on the traced nanosecond."""
    for cvms in (1, 4):
        world, ctx = boot_obs_world(read_cache=True, write_behind=True,
                                    binder_ring=True, cvms=cvms)
        start = world.clock.now_ns
        _iterate(ctx, "binderburst", 1)
        _iterate(ctx, "binderburst", 1)
        elapsed = world.clock.now_ns - start
        assert elapsed == BINDER_DIGESTS[("binderburst", cvms)][0]


def test_dormant_run_elapses_identical_sim_time():
    """The untraced (fast-path) run charges the same simulated time.

    The charge *stream* only exists under trace, but elapsed simulated
    time is observable either way — the dormant integer-add fast paths
    must land on the same nanosecond as the instrumented walk.
    """
    for workload in ("fileops", "batchio", "writeburst"):
        world, ctx = boot_obs_world(read_cache=True, write_behind=True)
        start = world.clock.now_ns
        _iterate(ctx, workload, 1)
        _iterate(ctx, workload, 1)
        elapsed = world.clock.now_ns - start
        assert elapsed == SEED_DIGESTS[(workload, 1)][0], workload


# -- slab-pool reuse / aliasing safety ----------------------------------------

_SLAB_OPS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=DEFAULT_SLAB_BYTES + 512),
        st.binary(min_size=0, max_size=64),
    ),
    min_size=1, max_size=24,
)


@settings(max_examples=50, deadline=None)
@given(ops=_SLAB_OPS, pool_free=st.integers(min_value=1, max_value=4))
def test_recycled_views_never_observe_reuse(ops, pool_free):
    """No live memoryview ever reads a recycled slab's bytes.

    Random acquire/render/view/recycle interleavings: every view taken
    before a recycle must raise ``ValueError`` afterwards (released,
    not aliased), and views over a reused slab must read back exactly
    the bytes rendered for *this* window, never a predecessor's.
    """
    pool = SlabPool(max_free=pool_free)
    dead_views = []
    for size, payload in ops:
        slab = pool.acquire(size)
        assert len(slab.buf) >= size
        fill = (payload * (size // max(len(payload), 1) + 1))[:size] \
            if payload else bytes(size)
        slab.buf[:size] = fill
        view = pool.view(slab, size)
        assert view.obj is slab.buf  # zero-copy: a window, not a copy
        assert bytes(view) == fill
        pool.recycle(slab)
        dead_views.append(view)
        for stale in dead_views:
            with pytest.raises(ValueError):
                stale.tobytes()
    assert pool.recycled == len(ops)
    assert len(pool._free) <= pool_free


@settings(max_examples=50, deadline=None)
@given(lengths=st.lists(st.integers(min_value=0, max_value=DEFAULT_SLAB_BYTES),
                        min_size=1, max_size=8))
def test_zeros_views_are_zero_and_sized(lengths):
    for length in lengths:
        view = zeros(length)
        assert view.nbytes == length
        assert not any(bytes(view))


@settings(max_examples=25, deadline=None)
@given(sizes=st.lists(st.integers(min_value=1, max_value=256),
                      min_size=2, max_size=8))
def test_concurrent_windows_never_share_a_slab(sizes):
    """Slabs acquired while others are live are distinct buffers."""
    pool = SlabPool()
    live = [pool.acquire(size) for size in sizes]
    bufs = {id(slab.buf) for slab in live}
    assert len(bufs) == len(live)
    for slab in live:
        pool.recycle(slab)
