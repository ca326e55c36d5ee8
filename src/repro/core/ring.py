"""Submission/completion rings over the kmapped shared pages.

The naive transport rang one doorbell per marshaled call: marshal ->
IRQ -> execute -> copy back -> hypercall, so doorbells scaled 1:1 with
redirected syscalls.  This module is the virtio-style replacement the
paper's abandoned prototypes gestured at, rebuilt on the remapped-pages
channel that won: descriptors (sequence number + payload size) queue
in the shared window, one host->guest doorbell submits every
pending descriptor and one guest->host doorbell completes them all.

Design points:

* **Bounded capacity** — a ring holds at most ``depth`` descriptors
  (derived from the channel's page count by :func:`default_ring_depth`); a
  full ring raises :class:`~repro.errors.RingFull` and the layer
  flushes before retrying (backpressure, never silent loss).
* **Corrupt mark** — a descriptor slot tampered with *in the ring*
  (the ``ring.corrupt`` fault site) carries a corrupt mark that the
  consumer checks at pop time, so it surfaces as a typed
  :class:`~repro.errors.ChannelIntegrityError`, exactly like
  channel-level corruption.
* **Sequence numbers** — completions are matched to submissions by
  sequence, so out-of-order delivery (the ``ring.reorder`` fault site)
  is tolerated by construction.
* **Honest byte accounting** — descriptor payload sizes cross the
  channel through the chunked ``_transfer`` path, paying the
  calibrated per-chunk/per-byte costs; the 32-byte descriptor
  header is bookkeeping whose cost is already folded into the fixed
  per-call marshal charge, so single-call latency is unchanged.
"""

from __future__ import annotations

from collections import deque

from repro.errors import (
    ChannelCapacityError,
    ChannelError,
    ChannelIntegrityError,
    RingFull,
)
from repro.obs.bus import maybe_span
from repro.perf.costs import PAGE_SIZE


RING_HEADER_BYTES = 32
"""Wire footprint of one descriptor header: seq (8) + call id (8) +
payload length (8) + corrupt mark (4) + flags/pad (4)."""

RING_FLAG_WRITE_BEHIND = 0x1
"""Descriptor header flag: this call was staged by a write-behind
window and its result will be reaped asynchronously (the submitter
already returned an optimistic result to the app)."""

RING_FLAG_BINDER = 0x2
"""Descriptor header flag: a batched oneway binder transaction drained
from a binder window (the sender already let go; delivery failures go
to the per-target ledger, not a call site)."""

DESCRIPTOR_SLOT_BYTES = 512
"""Ring slot granularity used to derive the default depth from the
shared-page window (one slot holds a header plus a small payload;
larger payloads spill into the chunked data area)."""


def default_ring_depth(num_pages):
    """Ring depth derived from the channel's page budget.

    One descriptor slot per :data:`DESCRIPTOR_SLOT_BYTES` of window —
    the 8-page default channel yields 64-deep rings, matching a
    virtio-net-style queue on comparable memory.
    """
    return max(2, (num_pages * PAGE_SIZE) // DESCRIPTOR_SLOT_BYTES)


class RingDescriptor:
    """One queued call (or completion) in a delegation ring.

    Sized, not rendered: ``len(descriptor)`` is the payload size the
    channel bills.  ``corrupt`` marks a slot whose contents were
    tampered with in the shared pages; the consumer refuses it.
    """

    __snapshot__ = "auto"

    __slots__ = ("seq", "call", "size", "flags", "corrupt")

    def __init__(self, seq, call, size, flags=0):
        self.seq = seq
        self.call = call
        self.size = size
        self.flags = flags
        self.corrupt = False

    def __len__(self):
        return self.size

    def __repr__(self):
        return (
            f"RingDescriptor(seq={self.seq}, call={self.call!r}, "
            f"{self.size}B)"
        )


class DelegationRing:
    """One direction of the descriptor transport (submit or complete)."""

    __snapshot__ = "auto"

    def __init__(self, name, channel, depth):
        if name not in ("submit", "complete"):
            raise ChannelError(f"unknown ring name {name!r}")
        if depth < 1:
            raise ChannelError(f"ring depth must be >= 1, got {depth}")
        self.name = name
        self.channel = channel
        self.depth = depth
        self.direction = "to-guest" if name == "submit" else "to-host"
        self._queue = deque()
        self._next_seq = 1
        self.pushed = 0
        self.popped = 0
        self.max_depth_seen = 0
        self.stalls = 0
        self.out_of_order = 0
        self.deferred_pushed = 0
        self.binder_pushed = 0

    # -- introspection -------------------------------------------------------

    def __len__(self):
        return len(self._queue)

    def free_slots(self):
        return self.depth - len(self._queue)

    @property
    def span_kind(self):
        return "ring-submit" if self.name == "submit" else "ring-complete"

    # -- producer side -------------------------------------------------------

    def push(self, call, size, seq=None, flags=0):
        """Queue one descriptor of ``size`` payload bytes.

        The payload's size crosses the shared pages (billed by the
        channel); the call's values travel by reference.  Returns the
        descriptor's sequence number.  Raises
        :class:`ChannelCapacityError` for a payload that cannot fit the
        window even alone, and :class:`RingFull` when every slot is
        taken (callers flush and retry — bounded backpressure).
        ``flags`` travel in the descriptor header (e.g.
        :data:`RING_FLAG_WRITE_BEHIND` for asynchronously reaped calls).
        """
        if type(size) is not int or size < 0:
            raise ChannelError(
                f"ring payload size must be a non-negative int, got "
                f"{size!r}"
            )
        if size + RING_HEADER_BYTES > self.channel.capacity:
            raise ChannelCapacityError(
                size, self.channel.capacity, call=call
            )
        clock = self.channel.hypervisor.machine.clock
        if len(self._queue) >= self.depth:
            # The ring.full stall models a producer spinning on a ring
            # with no free slot; it is only ever billed when the ring is
            # actually full.
            engine = clock.faults
            if engine is not None:
                stall_ns = engine.ring_full_stall_ns(call=call)
                if stall_ns:
                    self.stalls += 1
                    clock.advance(stall_ns, f"fault:ring-full:{self.name}")
            raise RingFull(self.name, self.depth)
        if seq is None:
            seq = self._next_seq
            self._next_seq += 1
        descriptor = RingDescriptor(seq, call, size, flags)
        if flags:
            if flags & RING_FLAG_WRITE_BEHIND:
                self.deferred_pushed += 1
            if flags & RING_FLAG_BINDER:
                self.binder_pushed += 1
        bus = clock.bus
        if bus is None or not bus._depth:
            self.channel._transfer(descriptor, self.direction)
        else:
            with maybe_span(clock, self.span_kind, f"{call}#{seq}",
                            kernel="channel", ring=self.name, seq=seq,
                            bytes=size, depth=len(self._queue) + 1):
                self.channel._transfer(descriptor, self.direction)
        self._queue.append(descriptor)
        self.pushed += 1
        depth_now = len(self._queue)
        if depth_now > self.max_depth_seen:
            self.max_depth_seen = depth_now
        return seq

    # -- consumer side -------------------------------------------------------

    def pop(self):
        """Dequeue the next descriptor, refusing a corrupt-marked slot.

        Returns ``None`` on an empty ring.  The ``ring.reorder`` fault
        site may deliver the *second* queued descriptor first (sequence
        matching on the consumer side absorbs this); ``ring.corrupt``
        marks the slot corrupt, which surfaces as a typed
        :class:`ChannelIntegrityError`.
        """
        queue = self._queue
        if not queue:
            return None
        engine = self.channel.hypervisor.machine.clock.faults
        if engine is not None and len(queue) > 1 \
                and engine.ring_reorder(call=queue[0].call):
            descriptor = queue[1]
            del queue[1]
            self.out_of_order += 1
        else:
            descriptor = queue.popleft()
        self.popped += 1
        if engine is not None \
                and engine.ring_corrupt(descriptor.call, descriptor.size):
            descriptor.corrupt = True
        if descriptor.corrupt:
            self.channel.integrity_failures += 1
            raise ChannelIntegrityError(self.direction, descriptor.size)
        return descriptor

    def reset(self):
        """Drop every queued descriptor (CVM reboot / recovery rebind)."""
        dropped = len(self._queue)
        self._queue.clear()
        return dropped

    def stats(self):
        return {
            "depth": self.depth,
            "queued": len(self._queue),
            "pushed": self.pushed,
            "popped": self.popped,
            "max_depth_seen": self.max_depth_seen,
            "stalls": self.stalls,
            "out_of_order": self.out_of_order,
            "deferred_pushed": self.deferred_pushed,
            "binder_pushed": self.binder_pushed,
        }

    def __repr__(self):
        return (
            f"DelegationRing({self.name}, depth={self.depth}, "
            f"queued={len(self._queue)})"
        )
