"""The chaos harness end to end: survive the default plan, replay it."""

import json
from dataclasses import replace

import pytest

from repro.core.config import FAST, PAPER
from repro.faults.chaos import (
    DEFAULT_PLAN,
    chaos_report_json,
    run_chaos,
)


def _reboots(result):
    return sum(entry["value"] for entry
               in result.metrics.counters()["cvm_reboots_total"])


class TestDefaultTour:
    def test_workload_completes_despite_faults(self):
        result = run_chaos("fileops", seed=7)
        assert result.status == "ok"
        assert result.faults["fired_total"] == 4
        assert set(result.faults["fired_by_site"]) == {
            "channel.corrupt", "irq.drop", "proxy.kill", "cvm.crash",
        }

    def test_cvm_rebooted_and_channels_rebound(self):
        result = run_chaos("fileops", seed=7)
        assert _reboots(result) == 1
        actions = [action for action, _ in result.recovery_log]
        assert "reboot-cvm" in actions
        assert "respawn-proxy" in actions

    def test_fault_and_recovery_events_on_bus(self):
        result = run_chaos("fileops", seed=7)
        kinds = {record["kind"] for record in result.records
                 if record["type"] == "event"}
        assert "fault" in kinds and "recovery" in kinds

    def test_metrics_counters_fed(self):
        result = run_chaos("fileops", seed=7)
        counters = result.metrics.counters()
        assert sum(e["value"] for e in counters["faults_injected_total"]) \
            == 4
        assert sum(e["value"] for e in counters["recoveries_total"]) >= 4


class TestDeterminism:
    def test_same_seed_byte_identical_report(self):
        first = chaos_report_json(run_chaos("fileops", seed=7))
        second = chaos_report_json(run_chaos("fileops", seed=7))
        assert first == second

    def test_report_round_trips_json(self):
        report = run_chaos("fileops", seed=7).report()
        assert json.loads(json.dumps(report)) == json.loads(
            json.dumps(report)
        )

    def test_probability_plan_replays(self):
        plan = "channel.corrupt:p=0.2;irq.drop:p=0.1"
        first = chaos_report_json(run_chaos("fileops", seed=3, faults=plan))
        second = chaos_report_json(run_chaos("fileops", seed=3, faults=plan))
        assert first == second


class TestDegradation:
    def test_recovery_disabled_surfaces_eio(self):
        result = run_chaos("fileops", seed=0,
                           faults="cvm.crash:nth=1:call=open",
                           recovery=False)
        assert result.status == "syscall-error"
        assert "EIO" in result.error
        assert _reboots(result) == 0

    def test_retries_exhausted_surfaces_eio(self):
        # every channel payload corrupts: retry can never win
        result = run_chaos("fileops", seed=0, faults="channel.corrupt")
        assert result.status == "syscall-error"
        assert "EIO" in result.error

    def test_compromise_triggers_paranoid_reboot(self):
        # mkdir holds no fd across the reboot point, so the paranoid
        # reboot on the next forwarded call recovers cleanly
        result = run_chaos("fileops", seed=0,
                           faults="cvm.compromise:nth=1:call=mkdir")
        assert result.status == "ok"
        assert _reboots(result) >= 1
        reasons = [detail for action, detail in result.recovery_log
                   if action == "reboot-cvm"]
        assert any("compromised" in reason for reason in reasons)

    @pytest.mark.xfail(strict=True, reason=(
        "known defect: a completion corrupted on its way to the host is "
        "retried by re-submitting a write the CVM already ran"))
    def test_corrupted_completion_does_not_replay_the_write(self):
        from repro.kernel import vfs

        seen = {}

        def two_writes(ctx):
            fd = ctx.libc.open(ctx.data_path("once.bin"),
                               vfs.O_RDWR | vfs.O_CREAT | vfs.O_TRUNC)
            ctx.libc.write(fd, b"one|")
            ctx.libc.write(fd, b"two|")
            ctx.libc.lseek(fd, 0)
            seen["data"] = ctx.libc.read(fd, 64)

        result = run_chaos(two_writes, seed=7, faults="ring.corrupt:nth=4")
        assert result.status == "ok"
        assert result.faults["fired_total"] == 1
        assert seen["data"] == b"one|two|"


class TestHarnessSurface:
    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown workload"):
            run_chaos("warp-drive")

    def test_callable_workload(self):
        calls = []

        def probe(ctx):
            calls.append(ctx.libc.getpid())

        result = run_chaos(probe, seed=0, faults="")
        assert result.status == "ok"
        assert result.workload == "probe"
        assert calls

    def test_engine_disarmed_after_run(self):
        result = run_chaos("getpid", seed=0)
        assert getattr(result.world.clock, "faults", None) is None

    def test_default_plan_is_parseable_and_cross_layer(self):
        from repro.faults.plan import FaultPlan

        plan = FaultPlan.parse(DEFAULT_PLAN)
        sites = {rule.site.split(".")[0] for rule in plan.rules}
        assert sites == {"channel", "irq", "proxy", "cvm"}

    def test_observe_off_same_elapsed(self):
        on = run_chaos("fileops", seed=7, observe=True)
        off = run_chaos("fileops", seed=7, observe=False)
        assert on.elapsed_ns == off.elapsed_ns
        assert off.records == []


class TestOverlapRollbackUnderChaos:
    """A fault escaping a drain's overlap window never bills the lane.

    ``cvm.crash`` striking inside a write-behind drain — with recovery
    on but container reboots off — makes the retry loop's container
    check raise *out of* the overlap window after the window already
    charged backoff and partial transfers to the lane cursor.  The
    rollback semantics (PR 9 bugfix) demand the lane watermark stay at
    its pre-window value: no later fence may wait out phantom time, and
    the whole faulted run must replay byte-identically.
    """

    @staticmethod
    def _run_once():
        from repro.core.recovery import RecoveryPolicy
        from repro.errors import SyscallError
        from repro.faults.chaos import ChaosApp
        from repro.faults.engine import FaultEngine
        from repro.faults.plan import FaultPlan
        from repro.kernel import vfs
        from repro.world import AnceptionWorld

        world = AnceptionWorld(async_delegation=True)
        world.anception.recovery = RecoveryPolicy(
            enabled=True, reboot_on_crash=False, respawn_proxies=False,
        )
        running = world.install_and_launch(ChaosApp())
        running.run()
        ctx = running.ctx
        fd = ctx.libc.open(
            ctx.data_path("rollback.bin"),
            vfs.O_RDWR | vfs.O_CREAT | vfs.O_TRUNC,
        )
        ctx.libc.write(fd, b"w" * 64)  # staged, not yet drained
        clock = world.clock
        lane = world.anception.cvm.lane
        backlog_before = clock.lane_backlog_ns(lane)
        engine = FaultEngine(
            FaultPlan.parse("cvm.crash:nth=1:call=write"), seed=0
        )
        engine.arm(clock)
        error = None
        try:
            ctx.libc.fsync(fd)  # fence -> drain -> crash mid-window
        except SyscallError as exc:
            error = exc.errno
        finally:
            engine.disarm()
        return {
            "errno": error,
            "backlog_before": backlog_before,
            "backlog_after": clock.lane_backlog_ns(lane),
            "fence_wait_ns": clock.wait_for(lane, "test:post-fault-fence"),
            "now_ns": clock.now_ns,
        }

    def test_lane_rolls_back_to_pre_window_watermark(self):
        result = self._run_once()
        assert result["errno"] is not None  # the fault surfaced as EIO
        assert result["backlog_after"] == result["backlog_before"] == 0
        assert result["fence_wait_ns"] == 0  # no phantom time to wait out

    def test_faulted_drain_replays_byte_identical(self):
        assert self._run_once() == self._run_once()


class TestWireFaultReplayPins:
    """Corrupt/truncate faults replay to pinned cursors and sim digests.

    The wire carries sizes, so ``channel.corrupt``, ``channel.truncate``
    and ``ring.corrupt`` set a corrupt mark or a short delivered size
    instead of mangling bytes.  These pins were captured when the
    faults still flipped and cut real payload bytes: the fired log
    (site, occurrence, sim timestamp — and, through the ``p=`` rules,
    the PRNG stream) and the traced span stream must not move.
    """

    PLAN = ("channel.corrupt:p=0.08;channel.truncate:p=0.08;"
            "ring.corrupt:p=0.08;irq.drop:p=0.1")

    PINS = {
        ("fileops", 6): (
            "syscall-error", 7196122,
            {"channel.corrupt": 2, "channel.truncate": 3, "irq.drop": 3,
             "ring.corrupt": 7},
            "8839fc1c3dcc18a6", "18110f0dfba6ffc6",
        ),
        ("fileops", 10): (
            "ok", 10020423,
            {"channel.corrupt": 3, "channel.truncate": 7, "irq.drop": 1,
             "ring.corrupt": 5},
            "f1795e1c07860d85", "cab4d2812e7a4d77",
        ),
        ("writeburst", 0): (
            "syscall-error", 3048069,
            {"channel.corrupt": 5, "channel.truncate": 2, "irq.drop": 1,
             "ring.corrupt": 1},
            "c16375c1920a8d6c", "abf4bd42185518b8",
        ),
    }

    @staticmethod
    def _sha(value):
        import hashlib
        return hashlib.sha256(repr(value).encode()).hexdigest()[:16]

    @pytest.mark.parametrize(("workload", "seed"), sorted(PINS))
    def test_replays_to_the_pinned_cursor_and_digest(self, workload, seed):
        config = FAST if workload == "writeburst" else PAPER
        result = run_chaos(workload, seed=seed, faults=self.PLAN,
                           config=config)
        fired = [(f["site"], f["occurrence"], f["ts_ns"])
                 for f in result.faults["fired"]]
        spans = [(r.get("type"), r.get("kind"), r.get("name"),
                  r.get("ts_ns"), r.get("dur_ns")) for r in result.records]
        assert (result.status, result.elapsed_ns,
                result.faults["fired_by_site"], self._sha(fired),
                self._sha(spans)) == self.PINS[(workload, seed)]


class TestWindowFaultReplayPins:
    """Async-window fault sites replay to pinned cursors and digests.

    Between them the pinned runs fire every write-behind and binder
    window site (``wb.error``, ``wb.reap-loss``, ``binder.drop``,
    ``binder.reorder``, ``binder.reply-loss``) plus ``ring.corrupt``
    inside window drains, with recovery on (reap re-polls, drain
    retries) and off (lost completions, exhausted retries ledgered as
    EIO/ECANCELED), on one lane and on a 4-lane by-uid pool.  Each pin
    covers the run's status and error text, elapsed sim ns, fired sites,
    and sha256 prefixes of the fired log, of every traced record (spans,
    events and charges with all their fields), of the recovery log and
    of each lane's two window counter tuples.
    """

    PLAN = ("binder.reorder:p=0.5;binder.reply-loss:p=0.5;"
            "binder.drop:nth=20;wb.reap-loss:p=0.5;wb.error:nth=60;"
            "ring.corrupt:p=0.03")

    PINS = {
        ("binderburst", 1, True, 0): (
            "syscall-error", "EIO in fence (deferred binder delivery error)",
            302842539,
            {"binder.drop": 1, "binder.reply-loss": 1, "ring.corrupt": 1},
            "66ec699321a3f639", "cc5aebcb1b86f985", "9d6433db1b788618",
            "3a93cc10bfc445a1",
        ),
        ("binderburst", 1, False, 0): (
            "syscall-error",
            "EIO in ioctl (deferred binder delivery error for 'location')",
            94015448, {"binder.reply-loss": 1},
            "b0fb88c84ab12d03", "d5779fbb75f5e835", "4f53cda18c2baa0c",
            "b1070e99e1caa19b",
        ),
        ("binderburst", 4, True, 1): (
            "syscall-error",
            "EIO in ioctl (deferred binder delivery error for 'location')",
            237252393,
            {"binder.drop": 1, "binder.reorder": 4, "ring.corrupt": 3},
            "d42b965ed8d14822", "517bc5c6d030d0a6", "7edd20050a7dc84d",
            "818bbb3146699126",
        ),
        ("binderburst", 4, False, 1): (
            "syscall-error",
            "EIO in ioctl (deferred binder delivery error for 'location')",
            69883388, {"binder.reorder": 1, "ring.corrupt": 1},
            "1043b9b2b82e9a92", "3f735a6a9e0dba98", "4f53cda18c2baa0c",
            "66e23082dc83c1e2",
        ),
        ("writeburst", 1, True, 0): (
            "syscall-error",
            "EIO in fence (deferred write-behind error on fd 3)", 8921980,
            {"ring.corrupt": 4, "wb.error": 1, "wb.reap-loss": 2},
            "b8ef150779eaeec2", "5816aee0fd8ba2a9", "8075b63328981e98",
            "af5f8543ae6d06cc",
        ),
        ("writeburst", 4, False, 0): (
            "syscall-error",
            "EIO in fence (deferred write-behind error on fd 3)", 3879708,
            {"ring.corrupt": 1, "wb.reap-loss": 1},
            "544916a361185ecf", "11d2eff7a96f6430", "4f53cda18c2baa0c",
            "2cdc61fee94864c7",
        ),
    }

    @staticmethod
    def _sha(value):
        import hashlib
        return hashlib.sha256(repr(value).encode()).hexdigest()[:16]

    @staticmethod
    def _window(windows):
        if windows is None:
            return None
        return (windows.depth, windows.enqueued, windows.drains,
                windows.fences, windows.deferred_errors,
                windows.bulk_parcels, windows.dropped, windows.reordered,
                windows.staged, windows.max_depth_seen)

    @classmethod
    def observe(cls, workload, cvms, recovery, seed):
        config = replace(FAST, cvms=cvms,
                         placement="by-uid" if cvms > 1 else None)
        result = run_chaos(workload, seed=seed, faults=cls.PLAN,
                           recovery=recovery, config=config)
        fired = [(f["site"], f["occurrence"], f["ts_ns"])
                 for f in result.faults["fired"]]
        records = [sorted(dict(r).items()) for r in result.records]
        windows = [(lane.name, cls._window(lane.write_behind),
                    cls._window(lane.binder_ring))
                   for lane in result.world.anception.pool.lanes]
        return (result.status, result.error, result.elapsed_ns,
                result.faults["fired_by_site"], cls._sha(fired),
                cls._sha(records), cls._sha(result.recovery_log),
                cls._sha(windows))

    @pytest.mark.parametrize(("workload", "cvms", "recovery", "seed"),
                             sorted(PINS))
    def test_replays_to_the_pinned_cursor_and_digest(self, workload, cvms,
                                                     recovery, seed):
        assert self.observe(workload, cvms, recovery, seed) \
            == self.PINS[(workload, cvms, recovery, seed)]

    def test_pins_fire_every_window_site(self):
        fired = set()
        for pin in self.PINS.values():
            fired.update(pin[3])
        assert {"wb.error", "wb.reap-loss", "binder.drop",
                "binder.reorder", "binder.reply-loss"} <= fired
        assert {key[2] for key in self.PINS} == {True, False}
