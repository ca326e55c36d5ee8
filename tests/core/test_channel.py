"""The host<->guest channel: chunking, byte accounting, signalling."""

import pytest

from repro.core.channel import AnceptionChannel
from repro.hypervisor import LguestHypervisor
from repro.kernel.kernel import Machine
from repro.perf.costs import PAGE_SIZE


@pytest.fixture
def machine():
    return Machine(total_mb=256)


@pytest.fixture
def channel(machine):
    hypervisor = LguestHypervisor(machine, guest_mb=32)
    hypervisor.launch_guest()
    return AnceptionChannel(hypervisor, machine.costs, num_pages=4)


class TestTransfers:
    def test_capacity(self, channel):
        assert channel.capacity == 4 * PAGE_SIZE

    def test_send_to_guest_counts_bytes(self, channel):
        channel.send_to_guest(b"x" * 100)
        assert channel.bytes_to_guest == 100
        assert channel.transfers == 1

    def test_send_to_host_counts_bytes(self, channel):
        channel.send_to_host(b"y" * 50)
        assert channel.bytes_to_host == 50

    def test_large_transfer_crosses_in_chunks(self, channel, machine):
        data = b"z" * (3 * PAGE_SIZE + 10)
        machine.clock.enable_trace()
        channel.send_to_guest(data)
        charges = machine.clock.drain_trace()
        chunk_charges = [c for c in charges if c[0] == "channel:chunk"]
        assert len(chunk_charges) == 4  # ceil(3*4096+10 / 4096)

    def test_empty_payload_still_pays_one_chunk(self, channel, machine):
        before = machine.clock.now_ns
        channel.send_to_guest(b"")
        assert machine.clock.now_ns - before == machine.costs.chunk_fixed_ns

    def test_per_byte_cost_direction_asymmetric(self, channel, machine):
        data = b"d" * PAGE_SIZE
        with machine.clock.measure() as inbound:
            channel.send_to_guest(data)
        with machine.clock.measure() as outbound:
            channel.send_to_host(data)
        assert inbound.elapsed_ns > outbound.elapsed_ns

    def test_transfer_runs_the_guest_window_check(self, channel):
        # No bytes are copied, but both sides still touch the window:
        # a shared frame outside the guest's window is a violation.
        from repro.errors import HypervisorViolation
        from repro.kernel.memory import Window

        channel.shared.guest_window = Window(0, 1)
        with pytest.raises(HypervisorViolation):
            channel.send_to_guest(b"x")
        with pytest.raises(HypervisorViolation):
            channel.send_to_host(b"x")

    def test_empty_transfer_touches_nothing(self, channel):
        from repro.kernel.memory import Window

        channel.shared.guest_window = Window(0, 1)
        channel.send_to_guest(b"")

    @pytest.mark.parametrize("size", [0, 1, PAGE_SIZE, PAGE_SIZE + 1,
                                      3 * PAGE_SIZE + 10])
    @pytest.mark.parametrize("mode", ["to-guest", "to-host", "bulk"])
    def test_folded_and_per_chunk_billing_agree(self, channel, machine,
                                                size, mode):
        """The unobserved one-add bill equals the traced chunk charges."""
        clock = machine.clock

        def send():
            if mode == "bulk":
                with channel.bulk_copy():
                    channel.send_to_guest(b"b" * size)
            else:
                channel._transfer(b"b" * size, mode)

        before = clock.now_ns
        send()
        folded = clock.now_ns - before
        marker = clock.enable_trace()
        before = clock.now_ns
        send()
        traced = clock.now_ns - before
        charges = clock.charges_since(marker)
        clock.disable_trace()
        assert folded == traced == sum(ns for _label, ns in charges)
        chunks = max(1, machine.costs.chunks(size))
        assert [label for label, _ns in charges].count(
            "channel:chunk") == chunks


class TestSignalling:
    def test_signal_guest_is_interrupt(self, channel):
        channel.signal_guest("call")
        assert channel.hypervisor.interrupt_count == 1

    def test_signal_host_is_hypercall(self, channel):
        channel.signal_host("done")
        assert channel.hypervisor.hypercall_count == 1

    def test_stats_snapshot(self, channel):
        channel.send_to_guest(b"abc")
        channel.signal_guest("x")
        channel.send_to_host(b"de")
        channel.signal_host("y")
        stats = channel.stats()
        assert stats["transfers"] == 2
        assert stats["bytes_to_guest"] == 3
        assert stats["bytes_to_host"] == 2
        assert stats["hypercalls"] == 1
        assert stats["interrupts"] == 1
