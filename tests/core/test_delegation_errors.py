"""Typed delegation-layer failures: no more silent channel/proxy lies.

Before the fault-injection work the channel would bill whatever it was
given and the proxy manager would happily ``execute`` against a dead
guest task.  Both now fail loudly with members of the
:class:`~repro.errors.DelegationError` family, which is what the
recovery supervisor keys off — as does a CVM that forges descriptors.
"""

import pytest

from repro.android.app import AppManifest
from repro.clock import SimClock
from repro.core.channel import AnceptionChannel
from repro.core.recovery import RecoveryPolicy
from repro.errors import (
    ChannelError,
    ChannelIntegrityError,
    ChannelStalled,
    ContainerCrashed,
    DelegationError,
    ProxyDied,
    SyscallError,
)
from repro.faults.engine import FaultEngine
from repro.hypervisor import LguestHypervisor
from repro.kernel.kernel import Machine
from tests.conftest import ScratchApp


@pytest.fixture
def machine():
    return Machine(total_mb=256)


@pytest.fixture
def channel(machine):
    hypervisor = LguestHypervisor(machine, guest_mb=32)
    hypervisor.launch_guest()
    return AnceptionChannel(hypervisor, machine.costs, num_pages=4)


class TestHierarchy:
    def test_family_tree(self):
        assert issubclass(ChannelError, DelegationError)
        assert issubclass(ChannelIntegrityError, ChannelError)
        assert issubclass(ChannelStalled, ChannelError)
        assert issubclass(ProxyDied, DelegationError)
        assert issubclass(ContainerCrashed, DelegationError)

    def test_not_syscall_errors(self):
        # the supervisor must be able to tell infrastructure failures
        # from legitimate errnos
        assert not issubclass(DelegationError, SyscallError)

    def test_sites_labelled(self):
        assert ChannelError.site == "channel"
        assert ProxyDied.site == "proxy"
        assert ContainerCrashed.site == "cvm"


class TestChannelTyping:
    def test_non_bytes_payload_rejected(self, channel):
        # Payloads are billed by len(): an unsized one is refused.
        with pytest.raises(ChannelError, match="must be sized"):
            channel.send_to_guest(object())

    def test_non_bytes_payload_rejected_to_host(self, channel):
        with pytest.raises(ChannelError, match="must be sized"):
            channel.send_to_host(12345)
        assert channel.bytes_to_host == 0

    def test_corruption_detected_by_mark(self, channel, machine):
        engine = FaultEngine("channel.corrupt:nth=1").arm(machine.clock)
        try:
            with pytest.raises(ChannelIntegrityError) as exc:
                channel.send_to_guest(b"precious-payload")
        finally:
            engine.disarm()
        assert exc.value.direction == "to-guest"
        assert exc.value.nbytes == len(b"precious-payload")
        assert exc.value.delivered == exc.value.nbytes
        assert str(exc.value) == (
            "channel payload to-guest failed integrity check "
            "(16 bytes, marked corrupt)"
        )
        assert channel.integrity_failures == 1
        assert channel.stats()["integrity_failures"] == 1
        assert channel.bytes_to_guest == 0

    def test_truncation_detected(self, channel, machine):
        engine = FaultEngine("channel.truncate:nth=1").arm(machine.clock)
        try:
            with pytest.raises(ChannelIntegrityError) as exc:
                channel.send_to_host(b"x" * 64)
        finally:
            engine.disarm()
        assert (exc.value.nbytes, exc.value.delivered) == (64, 32)
        assert "truncated to 32" in str(exc.value)

    def test_clean_transfer_counts_no_failures(self, channel):
        channel.send_to_guest(b"fine")
        assert channel.integrity_failures == 0

    def test_dropped_irq_reported_not_hung(self, channel, machine):
        engine = FaultEngine("irq.drop:nth=1").arm(machine.clock)
        try:
            assert channel.signal_guest("doorbell") is False
            assert channel.signal_guest("doorbell") is True
        finally:
            engine.disarm()

    def test_dropped_hypercall_reported(self, channel, machine):
        engine = FaultEngine("hypercall.drop:nth=1").arm(machine.clock)
        try:
            assert channel.signal_host("completion") is False
            assert channel.signal_host("completion") is True
        finally:
            engine.disarm()

    def test_duplicated_irq_counted_twice(self, channel, machine):
        before = channel.hypervisor.interrupt_count
        engine = FaultEngine("irq.dup:nth=1").arm(machine.clock)
        try:
            assert channel.signal_guest("doorbell") is True
        finally:
            engine.disarm()
        assert channel.hypervisor.interrupt_count == before + 2


class TestProxyTyping:
    def test_dead_proxy_raises_proxy_died(self, anception_world,
                                          enrolled_ctx):
        proxies = anception_world.anception.proxies
        proxy = proxies.proxy_for(enrolled_ctx.task)
        anception_world.cvm.kernel.reap_task(proxy.guest_task, exit_code=-9)
        with pytest.raises(ProxyDied) as exc:
            proxies.execute(proxy, "getpid", (), {})
        assert exc.value.host_pid == enrolled_ctx.task.pid
        assert exc.value.guest_pid == proxy.guest_task.pid

    def test_dead_proxy_surfaces_as_eio_to_app(self, anception_world,
                                               enrolled_ctx):
        # default recovery policy is disabled: typed failure -> EIO
        proxy = anception_world.anception.proxies.proxy_for(
            enrolled_ctx.task
        )
        anception_world.cvm.kernel.reap_task(proxy.guest_task, exit_code=-9)
        with pytest.raises(SyscallError) as exc:
            enrolled_ctx.libc.open(enrolled_ctx.data_path("f"), 0o102)
        assert "EIO" in str(exc.value)

    def test_respawn_replaces_proxy(self, anception_world, enrolled_ctx):
        proxies = anception_world.anception.proxies
        old = proxies.proxy_for(enrolled_ctx.task)
        anception_world.cvm.kernel.reap_task(old.guest_task, exit_code=-9)
        new = proxies.respawn_proxy(enrolled_ctx.task)
        assert new.guest_task.pid != old.guest_task.pid
        assert new.guest_task.is_alive()
        assert proxies.proxy_for(enrolled_ctx.task) is new
        assert enrolled_ctx.task.proxy is new.guest_task


class OtherApp(ScratchApp):
    manifest = AppManifest("com.test.other", permissions=("INTERNET",))


class TestForgedDescriptors:
    """A lying CVM costs one call an EIO (or a retry), never the host."""

    FORGED_SEQ = 999_999

    def _forge_completion(self, world):
        world.anception.pool.default_lane.channel.complete_ring.push(
            "write", 8, seq=self.FORGED_SEQ
        )

    def test_forged_completion_fails_the_call_not_the_host(
            self, anception_world, enrolled_ctx):
        other = anception_world.install_and_launch(OtherApp())
        other.run()
        libc = enrolled_ctx.libc
        fd = libc.open(enrolled_ctx.data_path("f"), 0o102)
        other_fd = other.ctx.libc.open(other.ctx.data_path("g"), 0o102)
        self._forge_completion(anception_world)
        with pytest.raises(SyscallError) as exc:
            libc.write(fd, b"x")
        assert "EIO" in str(exc.value)
        assert f"cvm: completion seq {self.FORGED_SEQ}" in str(exc.value)
        assert isinstance(exc.value.__cause__, ChannelError)
        # The rings were reset: the second app and the victim both go on.
        assert other.ctx.libc.write(other_fd, b"still fine") == 10
        assert libc.write(fd, b"again") == 5

    def test_forged_completion_is_retried_under_recovery(
            self, anception_world, enrolled_ctx):
        layer = anception_world.anception
        layer.recovery = RecoveryPolicy.chaos_default()
        fd = enrolled_ctx.libc.open(enrolled_ctx.data_path("f"), 0o102)
        self._forge_completion(anception_world)
        assert enrolled_ctx.libc.write(fd, b"xyz") == 3
        assert any(action == "retry" and str(self.FORGED_SEQ) in detail
                   for action, detail in layer.recovery_log)

    def test_forged_submit_descriptor_is_typed(self, anception_world,
                                                enrolled_ctx):
        lane = anception_world.anception.pool.default_lane
        lane.channel.submit_ring.push("write", 4, seq=self.FORGED_SEQ)
        with pytest.raises(ChannelError,
                           match=f"cvm: submit descriptor seq "
                                 f"{self.FORGED_SEQ}"):
            lane.proxies.drain(lane.channel, {})


class TestEngineArmError:
    def test_engine_arm_is_reversible_midstream(self, channel, machine):
        engine = FaultEngine("channel.corrupt").arm(machine.clock)
        engine.disarm()
        channel.send_to_guest(b"safe again")
        assert channel.integrity_failures == 0

    def test_simclock_has_no_default_engine(self):
        assert getattr(SimClock(), "faults", None) is None
