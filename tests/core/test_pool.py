"""The CVM pool: placement, routed transport, lane reboot, rebalance.

The tentpole guarantees under test:

* placement is deterministic and seed-stable — the same apps land on
  the same lanes on every run;
* every piece of lane-held transport state is re-armed through the one
  ``_bind_lane`` choke point, so a lane-scoped reboot leaves no stale
  references behind (the satellite-1 regression);
* a lane crash is *lane-scoped*: sibling lanes' apps keep running,
  differentially identical to a no-fault run;
* rebalancing (drain the app's windows, then migrate) moves an app's
  proxy, fd table, data tree with its modes, and ledger state to
  another lane without changing a byte of what the app observes;
* every lane-held counter is read under its own lane's label.
"""

from __future__ import annotations

import pytest

from repro.android.app import AppManifest
from repro.core.pool import CVMPool, Placement
from repro.clock import SimClock
from repro.errors import SimulationError, SyscallError
from repro.faults.engine import FaultEngine
from repro.kernel import vfs
from repro.kernel.net import AF_INET, SOCK_STREAM
from repro.obs.metrics import COUNTERS, read_counts
from repro.workloads.fleet import FleetApp
from repro.world import AnceptionWorld


def _launch_fleet(world, count):
    members = []
    for index in range(count):
        running = world.install_and_launch(FleetApp(index))
        running.run()
        members.append(running)
    return members


class _FakeCreds:
    def __init__(self, uid):
        self.uid = uid


class _FakeTask:
    def __init__(self, pid, uid):
        self.pid = pid
        self.credentials = _FakeCreds(uid)
        self.name = f"task-{pid}"


class TestPlacement:
    def test_unknown_policy_rejected(self):
        with pytest.raises(SimulationError, match="unknown placement"):
            Placement("round-robin")

    def test_parse_coerces(self):
        assert Placement.parse(None).policy == "by-uid"
        assert Placement.parse("by-load").policy == "by-load"
        existing = Placement("by-trust-class", seed=3)
        assert Placement.parse(existing) is existing

    def test_by_uid_is_deterministic(self):
        tasks = [_FakeTask(pid, 10000 + pid) for pid in range(20)]
        first = CVMPool(SimClock(), cvms=4)
        second = CVMPool(SimClock(), cvms=4)
        for task in tasks:
            assert first.assign(task).cvm_id == second.assign(task).cvm_id

    def test_by_uid_seed_changes_the_map(self):
        tasks = [_FakeTask(pid, 10000 + pid) for pid in range(32)]
        base = CVMPool(SimClock(), cvms=4, seed=0)
        salted = CVMPool(SimClock(), cvms=4, seed=1)
        base_map = [base.assign(task).cvm_id for task in tasks]
        salted_map = [salted.assign(task).cvm_id for task in tasks]
        assert base_map != salted_map

    def test_by_trust_class_pins_system_uids_to_lane_zero(self):
        pool = CVMPool(SimClock(), cvms=4, placement="by-trust-class")
        system = _FakeTask(1, 1000)  # appId < 10000: a system uid
        assert pool.assign(system).cvm_id == 0

    def test_by_trust_class_colocates_a_band(self):
        pool = CVMPool(SimClock(), cvms=4, placement="by-trust-class")
        a = pool.assign(_FakeTask(1, 10230))
        b = pool.assign(_FakeTask(2, 10231))  # same appId // 1000 band
        assert a is b

    def test_by_load_balances_evenly(self):
        pool = CVMPool(SimClock(), cvms=4, placement="by-load")
        for pid in range(8):
            pool.assign(_FakeTask(pid, 10000 + pid))
        assert pool.load_by_lane() == [2, 2, 2, 2]

    def test_single_lane_short_circuits(self):
        pool = CVMPool(SimClock(), cvms=1)
        assert pool.assign(_FakeTask(1, 10001)).cvm_id == 0

    def test_unassigned_pid_resolves_to_default_lane(self):
        pool = CVMPool(SimClock(), cvms=4)
        assert pool.lane_for(_FakeTask(99, 10099)) is pool.default_lane

    def test_pool_needs_at_least_one_cvm(self):
        with pytest.raises(SimulationError, match=">= 1 CVM"):
            CVMPool(SimClock(), cvms=0)


class TestRoutedTransport:
    def test_apps_spread_across_lanes(self):
        world = AnceptionWorld(cvms=4)
        members = _launch_fleet(world, 8)
        pool = world.anception.pool
        used = {pool.lane_for(m.task).cvm_id for m in members}
        assert len(used) > 1
        assert pool.assignments == 8

    def test_each_app_delegates_through_its_own_lane(self):
        world = AnceptionWorld(cvms=4)
        members = _launch_fleet(world, 6)
        pool = world.anception.pool
        for member in members:
            lane = pool.lane_for(member.task)
            before = lane.channel.transfers
            member.ctx.libc.write_file(
                member.ctx.data_path("probe.bin"), b"probe"
            )
            assert lane.channel.transfers > before

    def test_single_cvm_keeps_classic_back_compat_views(self):
        world = AnceptionWorld()
        anception = world.anception
        lane = anception.pool.default_lane
        assert anception.cvm is lane.cvm
        assert anception.channel is lane.channel
        assert anception.proxies is lane.proxies
        assert lane.cvm.lane == "cvm"
        assert lane.cvm.kernel.label == "cvm"

    def test_placement_flap_diverts_one_assignment(self):
        world = AnceptionWorld(cvms=4)
        engine = FaultEngine("pool.placement-flap:nth=1", seed=0)
        engine.arm(world.clock)
        try:
            _launch_fleet(world, 4)
        finally:
            engine.disarm()
        assert world.anception.pool.flaps == 1
        assert engine.fired[0]["site"] == "pool.placement-flap"

    def test_placement_flap_never_consulted_single_lane(self):
        world = AnceptionWorld()
        engine = FaultEngine("pool.placement-flap:p=1.0", seed=0)
        engine.arm(world.clock)
        try:
            _launch_fleet(world, 3)
        finally:
            engine.disarm()
        assert world.anception.pool.flaps == 0
        assert engine.fired == []


class TestLaneReboot:
    def _crash(self, lane):
        try:
            lane.cvm.kernel.panic("induced")
        except Exception:
            pass

    def test_reboot_rebinds_all_lane_state(self):
        """Satellite 1: no stale lane-held reference survives a reboot."""
        world = AnceptionWorld(cvms=2, read_cache=True,
                               async_delegation=True, binder_ring=True)
        members = _launch_fleet(world, 4)
        pool = world.anception.pool
        lane = pool.lane_for(members[0].task)
        # Populate every piece of lane-held state.
        for member in members:
            if pool.lane_for(member.task) is lane:
                member.ctx.libc.write_file(
                    member.ctx.data_path("pre.bin"), b"pre"
                )
        old_channel, old_proxies = lane.channel, lane.proxies
        old_cache, old_wb = lane.page_cache, lane.write_behind
        old_binder = lane.binder_ring
        lane.cache_paths["/stale"] = 1
        lane.write_behind.errors[(999, 1)] = 5
        lane.binder_ring.errors[(999, "svc")] = 5

        self._crash(lane)
        world.anception.reboot_cvm(lane)

        # Channel and proxies are new objects; windows/caches are the
        # same objects (counters survive) but their state is gone.
        assert lane.channel is not old_channel
        assert lane.proxies is not old_proxies
        assert lane.page_cache is old_cache
        assert lane.write_behind is old_wb
        assert lane.binder_ring is old_binder
        assert lane.cache_paths == {}
        assert lane.inflight == []
        assert lane.write_behind.errors == {}
        assert lane.binder_ring.errors == {}
        assert old_cache.stats()["pages"] == 0

        # Survivors on the rebooted lane keep working end to end.
        for member in members:
            if pool.lane_for(member.task) is lane:
                member.ctx.libc.write_file(
                    member.ctx.data_path("post.bin"), b"post"
                )
                member.ctx.libc.fence()
                assert member.ctx.libc.read_file(
                    member.ctx.data_path("post.bin")
                ) == b"post"

    def test_crash_is_lane_scoped(self):
        world = AnceptionWorld(cvms=4)
        members = _launch_fleet(world, 8)
        pool = world.anception.pool
        victim = pool.lane_for(members[0].task)
        self._crash(victim)
        for member in members:
            payload = f"alive-{member.app.index}".encode()
            path = member.ctx.data_path("alive.bin")
            if pool.lane_for(member.task) is victim:
                with pytest.raises(SyscallError):
                    member.ctx.libc.write_file(path, payload)
            else:
                member.ctx.libc.write_file(path, payload)
                assert member.ctx.libc.read_file(path) == payload

    def test_sibling_lane_stream_identical_to_no_fault(self):
        """Differential pin: a crash on one lane never changes a byte
        of what apps on sibling lanes compute."""
        def run(crash):
            world = AnceptionWorld(cvms=4)
            members = _launch_fleet(world, 8)
            pool = world.anception.pool
            victim = pool.lane_for(members[0].task)
            if crash:
                self._crash(victim)
            outcomes = {}
            for member in members:
                if pool.lane_for(member.task) is victim:
                    continue
                path = member.ctx.data_path("diff.bin")
                payload = f"diff-{member.app.index}".encode() * 8
                member.ctx.libc.write_file(path, payload)
                outcomes[member.app.index] = member.ctx.libc.read_file(path)
            return outcomes

        assert run(crash=True) == run(crash=False)

    def test_reboot_defaults_to_lane_zero(self):
        world = AnceptionWorld()
        running = world.install_and_launch(FleetApp(0))
        running.run()
        lane = world.anception.pool.default_lane
        self._crash(lane)
        world.anception.reboot_cvm()
        running.ctx.libc.write_file(
            running.ctx.data_path("again.bin"), b"again"
        )
        assert lane.cvm.reboot_count == 1


class TestRebalance:
    def _world_with_two_lanes(self):
        world = AnceptionWorld(cvms=2, read_cache=True,
                               async_delegation=True, binder_ring=True)
        members = _launch_fleet(world, 4)
        pool = world.anception.pool
        mover = members[0]
        source = pool.lane_for(mover.task)
        target = next(l for l in pool.lanes if l is not source)
        return world, members, mover, source, target

    def test_rebalance_moves_app_and_preserves_data(self):
        world, _members, mover, source, target = self._world_with_two_lanes()
        ctx = mover.ctx
        path = ctx.data_path("carried.bin")
        fd = ctx.libc.open(path, vfs.O_RDWR | vfs.O_CREAT)
        ctx.libc.write(fd, b"before-move")
        ctx.libc.fence(fd)

        assert world.anception.rebalance(mover.task, target) is True
        pool = world.anception.pool
        assert pool.lane_for(mover.task) is target
        assert pool.migrations == 1

        # The open fd still works: offset preserved, bytes identical.
        assert ctx.libc.pread(fd, 11, 0) == b"before-move"
        ctx.libc.write(fd, b"+after")
        ctx.libc.fence(fd)
        assert ctx.libc.pread(fd, 17, 0) == b"before-move+after"
        ctx.libc.close(fd)

        # New traffic lands on the target lane.
        before = target.channel.transfers
        ctx.libc.write_file(ctx.data_path("post-move.bin"), b"x")
        assert target.channel.transfers > before

    def test_rebalance_differential_equivalence(self):
        """The moved app's observable stream is byte-identical to a run
        that never moved it."""
        def run(move):
            world, _members, mover, _source, target = \
                self._world_with_two_lanes()
            ctx = mover.ctx
            path = ctx.data_path("obs.bin")
            fd = ctx.libc.open(path, vfs.O_RDWR | vfs.O_CREAT)
            ctx.libc.write(fd, b"phase-one;")
            ctx.libc.fence(fd)
            if move:
                assert world.anception.rebalance(mover.task, target)
            ctx.libc.write(fd, b"phase-two")
            ctx.libc.fence(fd)
            out = ctx.libc.pread(fd, 19, 0)
            ctx.libc.close(fd)
            listing = sorted(ctx.libc.listdir(ctx.data_path("")))
            return out, listing

        assert run(move=True) == run(move=False)

    def test_rebalance_same_lane_is_a_noop(self):
        world, _members, mover, source, _target = \
            self._world_with_two_lanes()
        assert world.anception.rebalance(mover.task, source) is False
        assert world.anception.pool.migrations == 0

    def test_rebalance_accepts_int_target(self):
        world, _members, mover, _source, target = \
            self._world_with_two_lanes()
        assert world.anception.rebalance(mover.task, target.cvm_id) is True
        assert world.anception.pool.lane_for(mover.task) is target

    def test_rebalance_skips_apps_holding_non_file_fds(self):
        world = AnceptionWorld(cvms=2)
        members = []
        for index in range(4):
            app = FleetApp(index)
            app._manifest = AppManifest(
                f"com.fleet.net{index:03d}", permissions=("INTERNET",)
            )
            running = world.install_and_launch(app)
            running.run()
            members.append(running)
        pool = world.anception.pool
        mover = members[0]
        target = next(
            l for l in pool.lanes if l is not pool.lane_for(mover.task)
        )
        mover.ctx.libc.socket(AF_INET, SOCK_STREAM, 0)
        assert world.anception.rebalance(mover.task, target) is False
        assert pool.lane_for(mover.task) is not target
        assert any(kind == "migrate-skip"
                   for kind, _ in world.anception.recovery_log)

    def test_rebalance_keeps_permission_modes(self):
        from repro.kernel.process import Credentials

        world, _members, mover, source, target = \
            self._world_with_two_lanes()
        ctx = mover.ctx
        ctx.libc.mkdir(ctx.data_path("shared"), 0o755)
        fd = ctx.libc.open(ctx.data_path("shared/readable.txt"),
                           vfs.O_RDWR | vfs.O_CREAT, 0o644)
        ctx.libc.write(fd, b"mode-bits")
        ctx.libc.close(fd)
        root = Credentials(0)

        def modes(lane):
            resolve = lane.cvm.kernel.vfs.resolve
            return (resolve(ctx.data_path("shared"), root).mode & 0o7777,
                    resolve(ctx.data_path("shared/readable.txt"),
                            root).mode & 0o7777)

        before = modes(source)
        assert before == (0o755, 0o644)
        assert world.anception.rebalance(mover.task, target) is True
        assert modes(target) == before

    def test_rebalance_loss_fault_aborts_the_move(self):
        world, _members, mover, source, target = \
            self._world_with_two_lanes()
        engine = FaultEngine("pool.rebalance-loss:nth=1", seed=0)
        engine.arm(world.clock)
        try:
            assert world.anception.rebalance(mover.task, target) is False
        finally:
            engine.disarm()
        pool = world.anception.pool
        assert pool.lane_for(mover.task) is source
        assert pool.migrations == 0
        assert any(kind == "migrate-abort"
                   for kind, _ in world.anception.recovery_log)
        # The app is unharmed and can still do I/O on its source lane.
        mover.ctx.libc.write_file(
            mover.ctx.data_path("still-here.bin"), b"ok"
        )


class TestLaneCounters:
    @pytest.fixture(scope="class")
    def fleet_world(self):
        world = AnceptionWorld(cvms=4, placement="by-uid", read_cache=True,
                               async_delegation=True, binder_ring=True)
        for member in _launch_fleet(world, 8):
            member.ctx.libc.write_file(
                member.ctx.data_path("agg.bin"), b"agg"
            )
        return world

    def test_every_lane_label_names_the_host_or_a_pool_lane(self,
                                                            fleet_world):
        pool = fleet_world.anception.pool
        names = {"host"} | {lane.name for lane in pool.lanes}
        seen = {labels[0] for (name, labels) in read_counts(fleet_world)
                if COUNTERS[name][:1] == ("lane",)}
        assert seen <= names
        assert len(seen & {lane.name for lane in pool.lanes}) > 1

    def test_ring_submits_are_read_per_lane(self, fleet_world):
        counts = read_counts(fleet_world)
        for lane in fleet_world.anception.pool.lanes:
            assert counts.get(("ring_submits_total", (lane.name,)), 0) \
                == lane.channel.submit_ring.pushed

    def test_pool_counts_every_resident(self, fleet_world):
        pool = fleet_world.anception.pool
        assert sum(len(pool.pids_on(lane)) for lane in pool.lanes) == 8
        assert pool.assignments == 8

    def test_world_repr_reports_the_pool(self):
        world = AnceptionWorld(cvms=4)
        assert "4 CVMs" in repr(world)
        assert "AnceptionWorld(host ui_only + CVM running)" == repr(
            AnceptionWorld()
        )
