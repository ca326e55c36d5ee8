"""The delegation rings: sized descriptors, corrupt marks, backpressure."""

import pytest

from repro.core.channel import AnceptionChannel
from repro.core.ring import (
    DESCRIPTOR_SLOT_BYTES,
    RING_FLAG_BINDER,
    RING_HEADER_BYTES,
    DelegationRing,
    default_ring_depth,
)
from repro.errors import (
    ChannelCapacityError,
    ChannelError,
    ChannelIntegrityError,
    RingFull,
)
from repro.faults.engine import FaultEngine
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


class TestDepthDerivation:
    def test_default_depth_scales_with_pages(self):
        assert default_ring_depth(8) == 8 * PAGE_SIZE // DESCRIPTOR_SLOT_BYTES
        assert default_ring_depth(8) == 64
        assert default_ring_depth(4) == 32

    def test_default_depth_floor(self):
        assert default_ring_depth(0) == 2

    def test_channel_builds_rings_at_derived_depth(self, channel):
        assert channel.submit_ring.depth == 32
        assert channel.complete_ring.depth == 32
        assert channel.ring_depth == 32

    def test_explicit_ring_depth_knob(self, machine):
        hypervisor = LguestHypervisor(machine, guest_mb=32)
        hypervisor.launch_guest()
        shallow = AnceptionChannel(hypervisor, machine.costs, num_pages=4,
                                   ring_depth=2)
        assert shallow.submit_ring.depth == 2
        assert shallow.complete_ring.depth == 2

    def test_bad_ring_names_and_depths_rejected(self, channel):
        with pytest.raises(ChannelError):
            DelegationRing("sideways", channel, 4)
        with pytest.raises(ChannelError):
            DelegationRing("submit", channel, 0)


class TestPushPop:
    def test_round_trip_preserves_payload(self, channel):
        seq = channel.submit_ring.push("write", 13, flags=RING_FLAG_BINDER)
        descriptor = channel.submit_ring.pop()
        assert descriptor.seq == seq
        assert descriptor.call == "write"
        assert descriptor.size == len(descriptor) == 13
        assert descriptor.flags == RING_FLAG_BINDER
        assert descriptor.corrupt is False

    def test_sequence_numbers_are_monotonic(self, channel):
        seqs = [channel.submit_ring.push("write", 1) for _ in range(5)]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == 5

    def test_pop_empty_returns_none(self, channel):
        assert channel.submit_ring.pop() is None

    def test_completion_ring_uses_caller_seq(self, channel):
        channel.complete_ring.push("write", 8, seq=41)
        descriptor = channel.complete_ring.pop()
        assert descriptor.seq == 41

    def test_non_bytes_payload_rejected(self, channel):
        # The payload is its size: anything but a non-negative int —
        # bytes included — is refused before it reaches the channel.
        for size in ("not-bytes", b"bytes", -1, 2.0, True, None):
            with pytest.raises(ChannelError, match="non-negative int"):
                channel.submit_ring.push("write", size)
        assert len(channel.submit_ring) == 0
        assert channel.transfers == 0

    def test_payload_crosses_the_shared_pages(self, channel):
        # No bytes are copied, but the push still touches the window
        # from both sides: a frame outside the guest window violates.
        from repro.errors import HypervisorViolation
        from repro.kernel.memory import Window

        channel.submit_ring.push("write", 10)
        assert channel.bytes_to_guest == 10
        channel.shared.guest_window = Window(0, 1)
        with pytest.raises(HypervisorViolation):
            channel.submit_ring.push("write", 10)

    def test_push_charges_the_channel_transfer(self, channel, machine):
        before = channel.bytes_to_guest
        start = machine.clock.now_ns
        channel.submit_ring.push("write", 600)
        assert channel.bytes_to_guest - before == 600
        costs = machine.costs
        assert machine.clock.now_ns - start == costs.chunk_fixed_ns + int(
            costs.marshal_in_per_byte_ns * 600)

    def test_zero_size_descriptor_pays_one_chunk(self, channel, machine):
        start = machine.clock.now_ns
        channel.complete_ring.push("close", 0, seq=3)
        assert machine.clock.now_ns - start == machine.costs.chunk_fixed_ns
        assert channel.complete_ring.pop().size == 0


class TestCapacityAndBackpressure:
    def test_oversized_descriptor_raises_typed_error(self, channel):
        too_big = channel.capacity - RING_HEADER_BYTES + 1
        with pytest.raises(ChannelCapacityError) as exc:
            channel.submit_ring.push("write", too_big)
        assert exc.value.nbytes == too_big
        assert exc.value.capacity == channel.capacity
        assert str(channel.capacity) in str(exc.value)

    def test_largest_fitting_descriptor_accepted(self, channel):
        just_fits = channel.capacity - RING_HEADER_BYTES
        assert channel.submit_ring.push("write", just_fits) > 0

    def test_full_ring_raises_ring_full(self, machine):
        hypervisor = LguestHypervisor(machine, guest_mb=32)
        hypervisor.launch_guest()
        tight = AnceptionChannel(hypervisor, machine.costs, num_pages=4,
                                 ring_depth=3)
        for _ in range(3):
            tight.submit_ring.push("write", 1)
        with pytest.raises(RingFull) as exc:
            tight.submit_ring.push("write", 1)
        assert exc.value.depth == 3
        assert tight.submit_ring.free_slots() == 0

    def test_pop_frees_a_slot(self, machine):
        hypervisor = LguestHypervisor(machine, guest_mb=32)
        hypervisor.launch_guest()
        tight = AnceptionChannel(hypervisor, machine.costs, num_pages=4,
                                 ring_depth=2)
        tight.submit_ring.push("write", 1)
        tight.submit_ring.push("write", 1)
        tight.submit_ring.pop()
        assert tight.submit_ring.free_slots() == 1
        tight.submit_ring.push("write", 1)


class TestFaultSites:
    def test_ring_corrupt_surfaces_as_integrity_error(self, channel,
                                                      machine):
        engine = FaultEngine("ring.corrupt:nth=1").arm(machine.clock)
        try:
            channel.submit_ring.push("write", 16)
            with pytest.raises(ChannelIntegrityError) as exc:
                channel.submit_ring.pop()
        finally:
            engine.disarm()
        assert channel.integrity_failures == 1
        assert exc.value.direction == "to-guest"
        assert exc.value.nbytes == exc.value.delivered == 16
        assert "marked corrupt" in str(exc.value)

    def test_ring_corrupt_skips_empty_descriptors(self, channel, machine):
        # Nothing to mangle in an empty slot: the site's occurrence
        # counter only advances for real payloads.
        engine = FaultEngine("ring.corrupt:nth=1").arm(machine.clock)
        try:
            channel.complete_ring.push("close", 0, seq=1)
            assert channel.complete_ring.pop().seq == 1
            assert engine.fired == []
            channel.complete_ring.push("read", 8, seq=2)
            with pytest.raises(ChannelIntegrityError):
                channel.complete_ring.pop()
        finally:
            engine.disarm()

    def test_corrupt_marked_slot_is_refused(self, channel):
        # A slot tampered with in the shared pages (no fault engine):
        # the consumer refuses the mark, it never hands the call on.
        channel.submit_ring.push("write", 4)
        channel.submit_ring._queue[0].corrupt = True
        with pytest.raises(ChannelIntegrityError):
            channel.submit_ring.pop()
        assert channel.submit_ring.pop() is None

    def test_ring_reorder_delivers_second_first(self, channel, machine):
        first = channel.submit_ring.push("write", 5)
        second = channel.submit_ring.push("write", 6)
        engine = FaultEngine("ring.reorder:nth=1").arm(machine.clock)
        try:
            assert channel.submit_ring.pop().seq == second
            assert channel.submit_ring.pop().seq == first
        finally:
            engine.disarm()
        assert channel.submit_ring.out_of_order == 1

    def test_ring_full_fault_stalls_a_genuinely_full_push(self, machine):
        hypervisor = LguestHypervisor(machine, guest_mb=32)
        hypervisor.launch_guest()
        tight = AnceptionChannel(hypervisor, machine.costs, num_pages=4,
                                 ring_depth=2)
        tight.submit_ring.push("write", 1)
        tight.submit_ring.push("write", 1)
        engine = FaultEngine("ring.full:nth=1:delay_us=500").arm(
            machine.clock
        )
        try:
            before = machine.clock.now_ns
            with pytest.raises(RingFull):
                tight.submit_ring.push("write", 1)
            stalled = machine.clock.now_ns - before
        finally:
            engine.disarm()
        assert stalled >= 500_000
        assert tight.submit_ring.stalls == 1

    def test_ring_full_fault_never_bills_a_non_full_ring(self, channel,
                                                         machine):
        # Regression: the stall used to be charged before the fullness
        # check, so a push onto a ring with free slots paid the delay.
        engine = FaultEngine("ring.full:nth=1:delay_us=500").arm(
            machine.clock
        )
        try:
            before = machine.clock.now_ns
            channel.submit_ring.push("write", 1)
            stalled = machine.clock.now_ns - before
        finally:
            engine.disarm()
        assert stalled < 500_000
        assert channel.submit_ring.stalls == 0


class TestResetAndStats:
    def test_reset_drops_queued_descriptors(self, channel):
        channel.submit_ring.push("write", 1)
        channel.submit_ring.push("write", 1)
        assert channel.submit_ring.reset() == 2
        assert channel.submit_ring.pop() is None

    def test_reset_rings_clears_both_directions(self, channel):
        channel.submit_ring.push("write", 1)
        channel.complete_ring.push("write", 1, seq=1)
        channel.reset_rings()
        assert len(channel.submit_ring) == 0
        assert len(channel.complete_ring) == 0

    def test_stats_track_traffic(self, channel):
        channel.submit_ring.push("write", 1)
        channel.submit_ring.push("write", 1)
        channel.submit_ring.pop()
        stats = channel.submit_ring.stats()
        assert stats["pushed"] == 2
        assert stats["popped"] == 1
        assert stats["queued"] == 1
        assert stats["max_depth_seen"] == 2

    def test_channel_stats_include_rings(self, channel):
        stats = channel.stats()
        assert stats["submit_ring"]["depth"] == 32
        assert stats["complete_ring"]["depth"] == 32
        assert stats["coalesced_doorbells"] == 0
        assert stats["descriptors_retired"] == 0
