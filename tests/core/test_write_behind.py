"""Write-behind delegation: windows, fences, and the deferred ledger.

These pin the tentpole's contract points: deferral is invisible in an
unfaulted run, a deferred errno surfaces exactly once at the first
fence, later window entries die with ECANCELED, the in-flight depth
bounds staged work, the overlap lane makes the host cheaper than sync,
and a CVM reboot clears every async remnant.
"""

import errno

import pytest

from repro.android.app import App, AppManifest
from repro.clock import SimClock
from repro.core.windows import BINDER, WINDOW_DEPTH, WRITE_BEHIND, AsyncWindows
from repro.errors import SyscallError
from repro.faults.engine import FaultEngine
from repro.faults.plan import FaultPlan
from repro.kernel import vfs
from repro.world import AnceptionWorld


class WbApp(App):
    manifest = AppManifest("com.test.writebehind")

    def main(self, ctx):
        return {"ok": True}


TRUNC = vfs.O_RDWR | vfs.O_CREAT | vfs.O_TRUNC


@pytest.fixture
def wb_world():
    return AnceptionWorld(async_delegation=True)


@pytest.fixture
def wb_ctx(wb_world):
    running = wb_world.install_and_launch(WbApp())
    running.run()
    return running.ctx


def _arm(world, plan):
    engine = FaultEngine(FaultPlan.parse(plan), seed=0)
    engine.arm(world.clock)
    return engine


class TestOverlapLane:
    def test_overlap_charges_do_not_move_host_time(self):
        clock = SimClock()
        with clock.overlap("cvm"):
            clock.advance(500, "guest-work")
        assert clock.now_ns == 0
        assert clock.lane_backlog_ns("cvm") == 500

    def test_wait_for_advances_to_watermark_once(self):
        clock = SimClock()
        with clock.overlap("cvm"):
            clock.advance(300)
        assert clock.wait_for("cvm") == 300
        assert clock.now_ns == 300
        assert clock.wait_for("cvm") == 0

    def test_windows_resume_from_watermark(self):
        clock = SimClock()
        with clock.overlap("cvm"):
            clock.advance(100)
        clock.advance(40, "host-work")
        with clock.overlap("cvm"):
            clock.advance(100)
        # Second window starts at the lane watermark (100), not at
        # host time (40): one lane is one serial vCPU.
        assert clock.lane_backlog_ns("cvm") == 200 - 40

    def test_windows_do_not_nest(self):
        clock = SimClock()
        with clock.overlap("cvm"):
            with pytest.raises(ValueError):
                with clock.overlap("cvm"):
                    pass

    def test_wait_inside_window_is_refused(self):
        clock = SimClock()
        with clock.overlap("cvm"):
            with pytest.raises(ValueError):
                clock.wait_for("cvm")


class TestDeferral:
    def test_library_default_is_off(self):
        world = AnceptionWorld()
        assert world.anception.write_behind is None
        assert world.anception.stats()["write_behind"] is None

    def test_deferred_write_returns_optimistic_count(self, wb_world, wb_ctx):
        fd = wb_ctx.libc.open(wb_ctx.data_path("d.bin"), TRUNC)
        assert wb_ctx.libc.write(fd, b"deferred") == 8
        wb = wb_world.anception.write_behind
        assert wb.enqueued == 1
        assert wb.stats()["pending"] == 1
        wb_ctx.libc.close(fd)
        assert wb.stats()["pending"] == 0

    def test_writev_defers_per_iovec(self, wb_world, wb_ctx):
        fd = wb_ctx.libc.open(wb_ctx.data_path("v.bin"), TRUNC)
        assert wb_ctx.libc.writev(fd, (b"aa", b"bbb", b"c")) == 6
        assert wb_world.anception.write_behind.enqueued == 3
        wb_ctx.libc.close(fd)
        assert wb_ctx.libc.read_file(wb_ctx.data_path("v.bin")) == b"aabbbc"

    def test_read_after_write_sees_the_bytes(self, wb_world, wb_ctx):
        fd = wb_ctx.libc.open(wb_ctx.data_path("raw.bin"), TRUNC)
        wb_ctx.libc.write(fd, b"coherent")
        assert wb_ctx.libc.pread(fd, 8, 0) == b"coherent"
        wb_ctx.libc.close(fd)

    def test_payload_snapshot_at_enqueue(self, wb_world, wb_ctx):
        buffer = bytearray(b"original")
        fd = wb_ctx.libc.open(wb_ctx.data_path("snap.bin"), TRUNC)
        wb_ctx.libc.write(fd, buffer)
        buffer[:] = b"mutated!"  # the app reuses its buffer immediately
        wb_ctx.libc.close(fd)
        assert wb_ctx.libc.read_file(
            wb_ctx.data_path("snap.bin")
        ) == b"original"

    def test_window_depth_bounds_staged_work(self, wb_world, wb_ctx):
        wb = wb_world.anception.write_behind
        fd = wb_ctx.libc.open(wb_ctx.data_path("deep.bin"), TRUNC)
        for _ in range(WINDOW_DEPTH + 1):
            wb_ctx.libc.write(fd, b"x" * 64)
        assert wb.drains == 1  # the full window drained once
        assert wb.max_depth_seen == WINDOW_DEPTH
        assert wb.stats()["pending"] == 1
        wb_ctx.libc.close(fd)

    @pytest.mark.parametrize("policy", [WRITE_BEHIND, BINDER],
                             ids=["wb", "binder"])
    @pytest.mark.parametrize("depth", [0, -1])
    def test_window_depth_below_one_is_refused(self, policy, depth):
        with pytest.raises(ValueError, match="depth of at least 1"):
            AsyncWindows(policy, depth, layer=None, lane=None)

    def test_descriptor_flags_mark_deferred_pushes(self, wb_world, wb_ctx):
        fd = wb_ctx.libc.open(wb_ctx.data_path("flag.bin"), TRUNC)
        wb_ctx.libc.write(fd, b"flagged")
        wb_ctx.libc.fence(fd)
        ring = wb_world.anception.channel.submit_ring
        assert ring.stats()["deferred_pushed"] == 1
        wb_ctx.libc.close(fd)
        assert ring.stats()["deferred_pushed"] == 1  # close is sync

    def test_host_time_per_deferred_call_beats_sync(self, wb_ctx):
        sync_world = AnceptionWorld()
        running = sync_world.install_and_launch(WbApp())
        running.run()
        sync_ctx = running.ctx
        results = {}
        for label, ctx in (("wb", wb_ctx), ("sync", sync_ctx)):
            fd = ctx.libc.open(ctx.data_path("lat.bin"), TRUNC)
            ctx.libc.write(fd, b"w" * 4096)  # absorb first-touch costs
            with ctx.kernel.clock.measure() as span:
                for _ in range(8):
                    ctx.libc.write(fd, b"w" * 4096)
            results[label] = span.elapsed_ns
            ctx.libc.close(fd)
        assert results["wb"] * 3 < results["sync"]


class TestFences:
    def test_fsync_drains_and_settles_the_lane(self, wb_world, wb_ctx):
        clock = wb_world.clock
        fd = wb_ctx.libc.open(wb_ctx.data_path("f.bin"), TRUNC)
        wb_ctx.libc.write(fd, b"y" * 4096)
        lane = wb_world.anception.cvm.lane
        wb_ctx.libc.fsync(fd)
        assert clock.lane_backlog_ns(lane) == 0
        assert wb_world.anception.write_behind.stats()["pending"] == 0
        wb_ctx.libc.close(fd)

    def test_fence_veneer_is_noop_on_sync_worlds(self):
        world = AnceptionWorld()
        running = world.install_and_launch(WbApp())
        running.run()
        assert running.ctx.libc.fence() == 0

    def test_cross_task_fence_keeps_cache_coherent(self, wb_world):
        # Task B must never read stale bytes for a file task A has
        # staged writes against: any redirected call fences ALL windows.
        running_a = wb_world.install_and_launch(WbApp())
        running_a.run()
        ctx_a = running_a.ctx
        fd = ctx_a.libc.open(ctx_a.data_path("shared.bin"), TRUNC)
        ctx_a.libc.write(fd, b"from-a")

        class PeerApp(App):
            manifest = AppManifest("com.test.writebehind.peer")

            def main(self, ctx):
                return {"ok": True}

        running_b = wb_world.install_and_launch(PeerApp())
        running_b.run()
        running_b.ctx.libc.getpid()  # HOST call: no fence required
        assert wb_world.anception.write_behind.stats()["pending"] == 1
        running_b.ctx.libc.stat(running_b.ctx.data_path(""))  # redirected
        assert wb_world.anception.write_behind.stats()["pending"] == 0
        ctx_a.libc.close(fd)


class TestDeferredErrors:
    def test_injected_error_surfaces_once_at_first_fence(
        self, wb_world, wb_ctx
    ):
        engine = _arm(wb_world, "wb.error:nth=1:errno=ENOSPC")
        try:
            fd = wb_ctx.libc.open(wb_ctx.data_path("e.bin"), TRUNC)
            assert wb_ctx.libc.write(fd, b"doomed") == 6  # optimistic
            with pytest.raises(SyscallError) as excinfo:
                wb_ctx.libc.fsync(fd)
            assert excinfo.value.errno == errno.ENOSPC
            # Exactly once: the next fence on the same fd is clean.
            wb_ctx.libc.fsync(fd)
            wb_ctx.libc.close(fd)
        finally:
            engine.disarm()

    def test_later_window_entries_get_ecanceled(self, wb_world, wb_ctx):
        engine = _arm(wb_world, "wb.error:nth=1:errno=EDQUOT")
        try:
            fd_a = wb_ctx.libc.open(wb_ctx.data_path("a.bin"), TRUNC)
            fd_b = wb_ctx.libc.open(wb_ctx.data_path("b.bin"), TRUNC)
            wb_ctx.libc.write(fd_a, b"first")   # fault fires here
            wb_ctx.libc.write(fd_b, b"second")  # same window: cancelled
            with pytest.raises(SyscallError) as first:
                wb_ctx.libc.fsync(fd_a)
            assert first.value.errno == errno.EDQUOT
            with pytest.raises(SyscallError) as second:
                wb_ctx.libc.fsync(fd_b)
            assert second.value.errno == errno.ECANCELED
            wb_ctx.libc.close(fd_a)
            wb_ctx.libc.close(fd_b)
        finally:
            engine.disarm()

    def test_close_surfaces_the_deferred_errno(self, wb_world, wb_ctx):
        engine = _arm(wb_world, "wb.error:nth=1")
        try:
            fd = wb_ctx.libc.open(wb_ctx.data_path("c.bin"), TRUNC)
            wb_ctx.libc.write(fd, b"doomed")
            with pytest.raises(SyscallError) as excinfo:
                wb_ctx.libc.close(fd)
            assert excinfo.value.errno == errno.EIO
            # The descriptor is gone regardless (NFS close semantics).
            with pytest.raises(SyscallError) as stale:
                wb_ctx.libc.fsync(fd)
            assert stale.value.errno == errno.EBADF
        finally:
            engine.disarm()

    def test_read_after_failed_write_raises_before_reading(
        self, wb_world, wb_ctx
    ):
        engine = _arm(wb_world, "wb.error:nth=1:errno=ENOSPC")
        try:
            fd = wb_ctx.libc.open(wb_ctx.data_path("r.bin"), TRUNC)
            wb_ctx.libc.write(fd, b"doomed")
            with pytest.raises(SyscallError) as excinfo:
                wb_ctx.libc.pread(fd, 6, 0)
            assert excinfo.value.errno == errno.ENOSPC
            wb_ctx.libc.close(fd)
        finally:
            engine.disarm()

    def test_reap_loss_without_recovery_ledgers_eio(self, wb_world, wb_ctx):
        wb_world.anception.recovery.enabled = False
        engine = _arm(wb_world, "wb.reap-loss:nth=1")
        try:
            fd = wb_ctx.libc.open(wb_ctx.data_path("lost.bin"), TRUNC)
            wb_ctx.libc.write(fd, b"vanishes")
            with pytest.raises(SyscallError) as excinfo:
                wb_ctx.libc.fsync(fd)
            assert excinfo.value.errno == errno.EIO
        finally:
            engine.disarm()


class TestReboot:
    def test_reboot_clears_windows_and_ledger(self, wb_world, wb_ctx):
        engine = _arm(wb_world, "wb.error:nth=1")
        try:
            fd = wb_ctx.libc.open(wb_ctx.data_path("rb.bin"), TRUNC)
            wb_ctx.libc.write(fd, b"doomed")
            wb_ctx.libc.fence()  # drain: the error is now ledgered
        finally:
            engine.disarm()
        wb = wb_world.anception.write_behind
        assert wb.errors
        wb_world.anception.reboot_cvm()
        assert not wb.errors
        assert wb.stats()["pending"] == 0
