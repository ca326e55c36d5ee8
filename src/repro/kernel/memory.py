"""Physical frames, address spaces, and page tables.

Anception's third principle — *the CVM must never be able to read an app's
user pages* — is enforced structurally here:

* every frame belongs to the single host :class:`PhysicalMemory`;
* a :class:`FrameAllocator` hands out frames only within its window;
* the hypervisor gives the guest kernel an allocator whose window covers
  just the CVM's assigned region, and :meth:`PhysicalMemory.read_frame`
  / :meth:`write_frame` refuse accessors whose window does not contain the
  frame, raising :class:`~repro.errors.HypervisorViolation`.

Even a fully compromised guest kernel therefore hits a hard wall when it
tries to touch host frames, which is exactly how the paper defeats the
memory-scanning stage of root exploits.
"""

from __future__ import annotations

import errno

from repro.errors import HypervisorViolation, SimulationError, SyscallError
from repro.perf.costs import PAGE_SIZE


PROT_NONE = 0
PROT_READ = 0x1
PROT_WRITE = 0x2
PROT_EXEC = 0x4

MAP_PRIVATE = 0x02
MAP_FIXED = 0x10
MAP_ANONYMOUS = 0x20


def page_of(addr):
    """Virtual page number containing ``addr``."""
    return addr // PAGE_SIZE


def page_count(nbytes):
    """Pages needed to hold ``nbytes``."""
    if nbytes <= 0:
        return 0
    return -(-nbytes // PAGE_SIZE)


class Window:
    """A half-open frame range [start, stop) an accessor may touch."""

    __snapshot__ = "auto"

    __slots__ = ("start", "stop")

    def __init__(self, start, stop):
        if stop < start:
            raise SimulationError(f"bad window [{start}, {stop})")
        self.start = start
        self.stop = stop

    def __contains__(self, frame):
        return self.start <= frame < self.stop

    def __len__(self):
        return self.stop - self.start

    def __repr__(self):
        return f"Window([{self.start}, {self.stop}))"


class PhysicalMemory:
    """All physical frames of the (single) host machine.

    Frame contents are lazily materialised bytearrays.  Every read/write
    names the accessor's window so the hypervisor invariant is checked at
    the lowest level rather than trusted to callers.
    """

    __snapshot__ = "auto"

    def __init__(self, num_frames):
        self.num_frames = num_frames
        self._frames = {}
        self._owners = {}

    def _check(self, frame, window):
        if not 0 <= frame < self.num_frames:
            raise SimulationError(f"frame {frame} out of physical range")
        if window is not None and frame not in window:
            raise HypervisorViolation(
                f"frame {frame} is outside accessor window {window}"
            )

    def read_frame(self, frame, window=None):
        """Return the 4096-byte content of ``frame``.

        Args:
            window: the accessor's permitted frame range; ``None`` means the
                host kernel / hypervisor itself (unrestricted).
        """
        self._check(frame, window)
        data = self._frames.get(frame)
        if data is None:
            return bytes(PAGE_SIZE)
        return bytes(data)

    _ZERO_PAGE = bytes(PAGE_SIZE)

    def assert_access(self, frame, window=None):
        """Run the window/range checks of an access without any data
        movement (the channel's window touches)."""
        self._check(frame, window)

    def frame_view(self, frame, window=None):
        """A read-only view of ``frame``'s content — no page copy.

        Same window enforcement as :meth:`read_frame`; the view aliases
        the live frame (an unmaterialised frame aliases the shared zero
        page), so callers must consume it before the next write."""
        self._check(frame, window)
        data = self._frames.get(frame)
        if data is None:
            return memoryview(self._ZERO_PAGE)
        return memoryview(data).toreadonly()

    def write_frame(self, frame, data, offset=0, window=None):
        """Write ``data`` into ``frame`` at ``offset``."""
        self._check(frame, window)
        if offset + len(data) > PAGE_SIZE:
            raise SimulationError("write spills past frame boundary")
        buf = self._frames.get(frame)
        if buf is None:
            buf = bytearray(PAGE_SIZE)
            self._frames[frame] = buf
        buf[offset : offset + len(data)] = data

    def scrub_window(self, window):
        """Zero every frame in ``window`` (VM launch scrubs guest RAM)."""
        for frame in list(self._frames):
            if frame in window:
                del self._frames[frame]
                self._owners.pop(frame, None)

    def tag_owner(self, frame, owner):
        self._owners[frame] = owner

    def owner_of(self, frame):
        return self._owners.get(frame)

    def frames_owned_by(self, owner):
        return [f for f, o in self._owners.items() if o == owner]


class FrameAllocator:
    """Allocates frames from a fixed window of physical memory.

    Fresh frames come from a rising cursor; freed frames are recycled
    LIFO.  Both paths are O(1), which matters: the host allocator covers
    a quarter-million frames and the CVM carve-out happens at every boot.
    """

    __snapshot__ = "auto"

    def __init__(self, physical, window, label):
        self.physical = physical
        self.window = window
        self.label = label
        self._next_fresh = window.start
        self._recycled = []
        self._allocated = set()

    def allocate(self, owner=None):
        if self._recycled:
            frame = self._recycled.pop()
        elif self._next_fresh < self.window.stop:
            frame = self._next_fresh
            self._next_fresh += 1
        else:
            raise SyscallError(
                errno.ENOMEM, f"allocator {self.label} exhausted"
            )
        self._allocated.add(frame)
        self.physical.tag_owner(frame, owner or self.label)
        return frame

    def free(self, frame):
        if frame not in self._allocated:
            raise SimulationError(f"double free of frame {frame}")
        self._allocated.remove(frame)
        self.physical.tag_owner(frame, None)
        self._recycled.append(frame)

    def carve_subwindow(self, num_frames, label):
        """Reserve a contiguous region and return an allocator over it.

        Used by the hypervisor to assign the CVM its physical window.
        The region is taken from the top of this allocator's window (the
        untouched fresh area), so the operation is O(1).
        """
        new_stop = self.window.stop - num_frames
        if new_stop < self._next_fresh or any(
            f >= new_stop for f in self._recycled
        ):
            raise SyscallError(errno.ENOMEM, "no contiguous region available")
        carved = Window(new_stop, self.window.stop)
        self.window = Window(self.window.start, new_stop)
        return FrameAllocator(self.physical, carved, label)

    @property
    def free_frames(self):
        return (self.window.stop - self._next_fresh) + len(self._recycled)

    @property
    def used_frames(self):
        return len(self._allocated)


class PageMapping:
    """One virtual page -> physical frame binding."""

    __snapshot__ = "auto"

    __slots__ = ("frame", "prot", "flags", "pinned")

    def __init__(self, frame, prot, flags=0, pinned=False):
        self.frame = frame
        self.prot = prot
        self.flags = flags
        self.pinned = pinned


class AddressSpace:
    """Per-task page table plus brk/mmap region management.

    The address-space layout is conventional: code and data mapped low,
    ``brk`` heap growing above them, and an mmap area allocated top-down
    from ``mmap_base``.
    """

    __snapshot__ = "auto"

    MMAP_BASE_PAGE = 0x40000  # 1 GiB / PAGE_SIZE: top of the mmap area
    BRK_BASE_PAGE = 0x08000

    def __init__(self, allocator, owner):
        self.allocator = allocator
        self.owner = owner
        self.pages = {}
        self.brk_page = self.BRK_BASE_PAGE
        self._mmap_next = self.MMAP_BASE_PAGE

    # -- mapping primitives ----------------------------------------------

    def map_page(self, vpn, prot, flags=0, frame=None):
        """Map virtual page ``vpn``; allocates a frame unless given one."""
        if vpn in self.pages:
            raise SimulationError(f"vpn {vpn:#x} already mapped in {self.owner}")
        if frame is None:
            frame = self.allocator.allocate(owner=self.owner)
            owns = True
        else:
            owns = False
        self.pages[vpn] = PageMapping(frame, prot, flags, pinned=not owns)
        return frame

    def unmap_page(self, vpn):
        mapping = self.pages.pop(vpn, None)
        if mapping is None:
            raise SyscallError(errno.EINVAL, f"vpn {vpn:#x} not mapped")
        if not mapping.pinned:
            self.allocator.free(mapping.frame)

    def protect(self, vpn, prot):
        mapping = self.pages.get(vpn)
        if mapping is None:
            raise SyscallError(errno.ENOMEM, f"vpn {vpn:#x} not mapped")
        mapping.prot = prot

    def translate(self, addr, need_prot):
        """Resolve ``addr`` -> (frame, offset); checks protections."""
        vpn = page_of(addr)
        mapping = self.pages.get(vpn)
        if mapping is None:
            raise SyscallError(errno.EFAULT, f"addr {addr:#x} unmapped")
        if need_prot and not mapping.prot & need_prot:
            raise SyscallError(errno.EFAULT, f"addr {addr:#x} prot violation")
        return mapping.frame, addr % PAGE_SIZE

    def is_mapped(self, addr):
        return page_of(addr) in self.pages

    # -- byte-level access (used by /proc/pid/mem and the loader) ---------

    def read(self, addr, length, window=None, need_prot=PROT_READ):
        """Read ``length`` bytes crossing page boundaries as needed.

        ``window`` is the accessor's frame window: a compromised *guest*
        kernel reading this address space passes its own window and will
        trip :class:`HypervisorViolation` on host-resident pages.
        """
        out = bytearray()
        remaining = length
        cursor = addr
        while remaining > 0:
            frame, offset = self.translate(cursor, need_prot)
            chunk = min(remaining, PAGE_SIZE - offset)
            page = self.allocator.physical.read_frame(frame, window)
            out += page[offset : offset + chunk]
            cursor += chunk
            remaining -= chunk
        return bytes(out)

    def write(self, addr, data, window=None, need_prot=PROT_WRITE):
        remaining = memoryview(bytes(data))
        cursor = addr
        while remaining.nbytes > 0:
            frame, offset = self.translate(cursor, need_prot)
            chunk = min(remaining.nbytes, PAGE_SIZE - offset)
            self.allocator.physical.write_frame(
                frame, bytes(remaining[:chunk]), offset, window
            )
            cursor += chunk
            remaining = remaining[chunk:]

    # -- region management --------------------------------------------------

    def mmap(self, length, prot, flags, addr=None):
        """Map an anonymous region; returns its base address.

        ``MAP_FIXED`` at address 0 is allowed (as on pre-hardening Linux):
        the sock_sendpage exploit depends on mapping the null page.
        """
        npages = page_count(length)
        if npages == 0:
            raise SyscallError(errno.EINVAL, "zero-length mmap")
        if flags & MAP_FIXED:
            if addr is None:
                raise SyscallError(errno.EINVAL, "MAP_FIXED without address")
            base_vpn = page_of(addr)
        else:
            self._mmap_next -= npages
            base_vpn = self._mmap_next
        for i in range(npages):
            if base_vpn + i in self.pages:
                raise SyscallError(errno.EEXIST, "mapping collision")
        for i in range(npages):
            self.map_page(base_vpn + i, prot, flags)
        return base_vpn * PAGE_SIZE

    def munmap(self, addr, length):
        base_vpn = page_of(addr)
        for i in range(page_count(length)):
            if base_vpn + i in self.pages:
                self.unmap_page(base_vpn + i)

    def set_brk(self, new_brk_page, prot=PROT_READ | PROT_WRITE):
        """Grow (or shrink) the heap; returns the new brk page."""
        if new_brk_page > self.brk_page:
            for vpn in range(self.brk_page, new_brk_page):
                if vpn not in self.pages:
                    self.map_page(vpn, prot)
        elif new_brk_page < self.brk_page:
            for vpn in range(new_brk_page, self.brk_page):
                if vpn in self.pages:
                    self.unmap_page(vpn)
        self.brk_page = new_brk_page
        return self.brk_page

    def resident_pages(self):
        return len(self.pages)

    def destroy(self):
        for vpn in list(self.pages):
            self.unmap_page(vpn)
