"""The host<->guest communication channel (Figure 4).

Marshaled call data is copied into a fixed set of guest kernel pages that
the hypervisor has remapped (``kmap``) into host kernel space.  The guest
signals the host with hypercalls; the host signals the guest by injecting
interrupts.  Transfers are chunked into 4096-byte packets (footnote 7) —
the channel only owns a handful of pages, so a 16 MB write crosses it in
4096 chunks, each paying the per-chunk cost.

Earlier prototypes used sockets and virtio and were abandoned for copy
overhead; the remapped-pages design is what the cost model calibrates.

The wire carries sizes, not bytes: call arguments and results cross as
Python references, and a transfer bills ``len(payload)`` through the
chunk arithmetic while both sides touch the window, so every access
check of a real copy still runs.  Corruption or truncation in transit
(via the fault engine) marks the transfer corrupt or shortens its
delivered size, and the reader refuses it with a typed
:class:`~repro.errors.ChannelIntegrityError` rather than silently
handing mangled data to the other kernel.  Doorbell signals report
delivery, so a dropped interrupt is visible to the sender as ``False``
instead of an indefinite hang.
"""

from __future__ import annotations

from repro.errors import ChannelError, ChannelIntegrityError
from repro.obs.bus import maybe_span
from repro.perf.costs import PAGE_SIZE


class AnceptionChannel:
    """Bounded shared-pages transport with cost accounting.

    On top of the raw chunked byte path the channel owns one
    :class:`~repro.core.ring.DelegationRing` pair: the *submit* ring
    carries marshaled calls host->guest, the *complete* ring carries
    results guest->host, and one doorbell in each direction retires
    every descriptor queued since the last ring (doorbell coalescing).
    """

    __snapshot__ = "auto"

    def __init__(self, hypervisor, costs, num_pages=8, ring_depth=None):
        from repro.core.ring import DelegationRing, default_ring_depth

        self.hypervisor = hypervisor
        self.costs = costs
        self.shared = hypervisor.kmap_guest_pages(num_pages)
        self.capacity = self.shared.capacity
        self.num_pages = num_pages
        self.ring_depth = (
            ring_depth if ring_depth is not None
            else default_ring_depth(num_pages)
        )
        self.submit_ring = DelegationRing("submit", self, self.ring_depth)
        self.complete_ring = DelegationRing("complete", self, self.ring_depth)
        self.bytes_to_guest = 0
        self.bytes_to_host = 0
        self.transfers = 0
        self.integrity_failures = 0
        self._bulk_depth = 0
        self.bulk_chunks = 0

    @property
    def window_bytes(self):
        """Bytes of remapped shared window — one read-ahead batch.

        The page cache stages read-ahead in window-sized batches: the
        doorbell pair for the demand miss is already paid, so anything
        that fits the window rides along for free."""
        return self.num_pages * PAGE_SIZE

    def send_to_guest(self, data):
        """Host -> guest: bill ``len(data)`` through the remapped pages."""
        return self._transfer(data, "to-guest")

    def send_to_host(self, data):
        """Guest -> host: same path, opposite direction and rate."""
        return self._transfer(data, "to-host")

    def _transfer(self, payload, direction):
        """Carry ``len(payload)`` bytes across the window in 4 KB chunks.

        ``payload`` is anything sized — a ring descriptor, or raw bytes
        for the msync stream.  Contents are never copied: the writer
        and the reader each touch the window (so every permission check
        of a real copy still runs) and the clock is billed per chunk.
        A fault that corrupts or truncates the transfer surfaces as a
        typed :class:`ChannelIntegrityError` on the reader side.
        """
        try:
            size = len(payload)
        except TypeError:
            raise ChannelError(
                f"channel payload must be sized, got "
                f"{type(payload).__name__}"
            ) from None
        inbound = direction == "to-guest"
        self.transfers += 1
        clock = self.hypervisor.machine.clock
        engine = clock.faults
        delivered, corrupt = size, False
        if engine is not None:
            stall_ns = engine.channel_stall_ns(direction)
            if stall_ns:
                clock.advance(stall_ns, f"fault:channel-stall:{direction}")
            delivered, corrupt = engine.channel_delivery(direction, size)
        if delivered:
            # Every chunk lands in the window's first frame: one side
            # writes it, the other reads it out (the kmap makes both
            # legal, and both run the frame's window check).
            first = delivered if delivered < PAGE_SIZE else PAGE_SIZE
            self.shared.touch(first, from_guest=not inbound)
            self.shared.touch(first, from_guest=inbound)
        costs = self.costs
        fixed_ns = costs.chunk_fixed_ns
        full_chunks, tail = divmod(delivered, PAGE_SIZE)
        # An empty transfer still pays one (empty) chunk.
        chunks = full_chunks + (1 if tail or not delivered else 0)
        if inbound and self._bulk_depth:
            label = "channel:bulk-copy"
            full_ns = tail_ns = costs.wb_drain_page_ns
            self.bulk_chunks += chunks
        else:
            label = "channel:copy"
            per_byte = (
                costs.marshal_in_per_byte_ns
                if inbound
                else costs.marshal_out_per_byte_ns
            )
            full_ns = int(per_byte * PAGE_SIZE)
            tail_ns = int(per_byte * tail)
        if clock.quiet():
            # Nobody observes individual charges: bill the chunk loop's
            # exact integer sum in one add.
            clock._now_ns += (chunks * fixed_ns + full_chunks * full_ns
                              + (tail_ns if chunks > full_chunks else 0))
        else:
            with maybe_span(clock, "channel-copy", direction,
                            kernel="channel", direction=direction,
                            bytes=size, chunks=max(1, costs.chunks(size))):
                for index in range(chunks):
                    clock.advance(fixed_ns, "channel:chunk")
                    clock.advance(
                        full_ns if index < full_chunks else tail_ns, label
                    )
        if corrupt or delivered != size:
            self.integrity_failures += 1
            raise ChannelIntegrityError(direction, size, delivered)
        if inbound:
            self.bytes_to_guest += size
        else:
            self.bytes_to_host += size
        return size

    def bulk_copy(self):
        """Context manager switching inbound copies to the bulk rate.

        A write-behind drain streams pre-staged, already-flattened
        buffers through the window, so each inbound chunk costs the
        page-copy-rate ``wb_drain_page_ns`` instead of the per-byte
        argument-marshal rate.  Outbound (completion) chunks keep the
        classic rate — they were never marshaled ahead of time.
        """
        return _BulkCopyWindow(self)

    def signal_guest(self, reason="", coalesced=1):
        """Ring the guest doorbell; ``False`` when the IRQ was lost.

        ``coalesced`` is how many ring descriptors this one doorbell
        submits (1 for the classic per-call shape).
        """
        return self.hypervisor.inject_interrupt(reason, coalesced=coalesced)

    def signal_host(self, reason="", coalesced=1):
        """Ring the host doorbell; ``False`` when the hypercall was lost."""
        return self.hypervisor.hypercall(reason, coalesced=coalesced)

    def reset_rings(self):
        """Drop all in-flight descriptors (recovery / rebind path)."""
        return self.submit_ring.reset() + self.complete_ring.reset()

    def stats(self):
        return {
            "transfers": self.transfers,
            "bytes_to_guest": self.bytes_to_guest,
            "bytes_to_host": self.bytes_to_host,
            "bulk_chunks": self.bulk_chunks,
            "hypercalls": self.hypervisor.hypercall_count,
            "interrupts": self.hypervisor.interrupt_count,
            "integrity_failures": self.integrity_failures,
            "submit_ring": self.submit_ring.stats(),
            "complete_ring": self.complete_ring.stats(),
            "coalesced_doorbells": self.hypervisor.coalesced_doorbells,
            "descriptors_retired": self.hypervisor.descriptors_retired,
        }


class _BulkCopyWindow:
    """Re-entrant flag window for :meth:`AnceptionChannel.bulk_copy`."""

    __snapshot__ = "auto"

    __slots__ = ("_channel",)

    def __init__(self, channel):
        self._channel = channel

    def __enter__(self):
        self._channel._bulk_depth += 1
        return self

    def __exit__(self, exc_type, exc, tb):
        self._channel._bulk_depth -= 1
        return False
