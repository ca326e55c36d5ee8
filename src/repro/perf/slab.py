"""Reusable byte-slab pool, unused by the engine itself.

The delegation wire carries sizes, not bytes (``DESIGN.md`` §13): no
call is rendered, so nothing needs a recycled buffer and no engine code
imports this module.  It stays only because the benchmark's layer map
(``perfbench/layers.py``) still imports it and wraps
:meth:`SlabPool.acquire`; it goes when that map is re-pointed.

A :class:`SlabPool` recycles ``bytearray`` slabs, exports tracked
:class:`memoryview` windows over them (:meth:`SlabPool.view`), and
:meth:`SlabPool.recycle` releases every exported view before a slab
returns to the freelist, so a stale reference raises ``ValueError``
instead of observing recycled bytes.  The pool never touches the
simulated clock.
"""

from __future__ import annotations


DEFAULT_SLAB_BYTES = 32 * 1024
"""Default slab size: one full 8-page channel window (the largest wire
payload the ring accepts without raising ``ChannelCapacityError``)."""

DEFAULT_MAX_FREE = 32
"""Freelist bound: slabs beyond this are dropped to the allocator
instead of hoarded (one submit window plus headroom)."""

_ZEROS = bytes(DEFAULT_SLAB_BYTES)
"""Shared all-zero buffer backing :func:`zeros` views."""


def zeros(length):
    """A read-only all-zero buffer of ``length`` bytes, shared when small.

    Completion descriptors carry ``length`` zero bytes (the simulation
    models result sizes, not result content); serving them as views over
    one shared buffer removes a per-completion allocation.
    """
    if length <= len(_ZEROS):
        return memoryview(_ZEROS)[:length]
    return memoryview(bytes(length))


class Slab:
    """One pooled ``bytearray`` plus the live views exported over it."""

    __snapshot__ = "auto"

    __slots__ = ("buf", "views")

    def __init__(self, size):
        self.buf = bytearray(size)
        self.views = []

    def __len__(self):
        return len(self.buf)

    def __repr__(self):
        return f"Slab({len(self.buf)}B, {len(self.views)} views)"


class SlabPool:
    """Bounded freelist of reusable byte slabs.

    ``acquire`` -> render into ``slab.buf`` -> ``view`` -> ship the view
    -> ``recycle`` when the transfer window retires.  Recycling releases
    every exported view first, which is the enforcement mechanism: code
    that stashed a view past its window gets ``ValueError: operation
    forbidden on released memoryview object`` instead of aliased garbage.
    """

    __snapshot__ = "auto"

    def __init__(self, slab_bytes=DEFAULT_SLAB_BYTES,
                 max_free=DEFAULT_MAX_FREE):
        self.slab_bytes = int(slab_bytes)
        self.max_free = int(max_free)
        self._free = []
        self.acquired = 0
        self.recycled = 0
        self.reused = 0
        self.oversize = 0

    def acquire(self, size):
        """A slab whose buffer holds at least ``size`` bytes."""
        self.acquired += 1
        if size <= self.slab_bytes and self._free:
            self.reused += 1
            return self._free.pop()
        if size > self.slab_bytes:
            # Oversize payloads get a dedicated slab; it is recycled to
            # the allocator (never the freelist) to keep the pool lean.
            self.oversize += 1
            return Slab(size)
        return Slab(self.slab_bytes)

    def view(self, slab, length):
        """Export (and track) a writable window over ``slab``'s buffer."""
        view = memoryview(slab.buf)[:length]
        slab.views.append(view)
        return view

    def recycle(self, slab):
        """Return ``slab`` to the freelist, invalidating its views."""
        if slab is None:
            return
        for view in slab.views:
            view.release()
        slab.views.clear()
        self.recycled += 1
        if len(slab.buf) <= self.slab_bytes \
                and len(self._free) < self.max_free:
            self._free.append(slab)

    def stats(self):
        return {
            "slab_bytes": self.slab_bytes,
            "free": len(self._free),
            "acquired": self.acquired,
            "reused": self.reused,
            "recycled": self.recycled,
            "oversize": self.oversize,
        }

    def __repr__(self):
        return (f"SlabPool({self.slab_bytes}B slabs, "
                f"{len(self._free)} free, {self.acquired} acquired)")
