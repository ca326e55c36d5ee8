"""Error types shared across the Anception reproduction.

The simulated kernel reports failures the way a Unix kernel does: system
calls return negative errno values or raise :class:`SyscallError` carrying an
errno.  Structural violations of the simulation itself (bugs in *our* code,
or invariant violations such as a guest mapping host memory) raise dedicated
exception types so tests can tell "the exploit failed with EPERM" apart from
"the simulator is broken".
"""

from __future__ import annotations

import errno as _errno


class ReproError(Exception):
    """Base class for every error raised by this package."""


class SyscallError(ReproError):
    """A system call failed with a Unix errno.

    Attributes:
        errno: positive errno value (e.g. ``errno.EPERM``).
        call: name of the failing system call, when known.
    """

    def __init__(self, errno_value, message="", call=None):
        self.errno = errno_value
        self.call = call
        name = _errno.errorcode.get(errno_value, str(errno_value))
        detail = f" ({message})" if message else ""
        origin = f" in {call}" if call else ""
        super().__init__(f"{name}{origin}{detail}")


class SecurityViolation(ReproError):
    """An operation was denied for security-policy reasons.

    Distinct from :class:`SyscallError` with EPERM: this is raised when an
    enforcement layer (hypervisor memory windows, Anception blocked-call
    policy, UID-change kill rule) stops an action dead, rather than when a
    normal permission check fails.
    """


class HypervisorViolation(SecurityViolation):
    """The guest attempted to access memory outside its assigned window."""


class SimulationError(ReproError):
    """The simulation itself was misused (a bug in driver code or tests)."""


class SnapshotError(SimulationError):
    """A world snapshot could not be taken or restored.

    Raised for malformed blobs (bad magic, unsupported version, length
    mismatch), payload corruption (content digest mismatch, truncation),
    un-audited components discovered at serialization time, and restore
    failures.  Restore is all-or-nothing: when this is raised no partial
    world escapes — the caller's original world is untouched.
    """


class DelegationError(ReproError):
    """A redirected call failed inside the delegation machinery itself.

    These are *infrastructure* failures — the channel, the proxy, or the
    container died mid-call — as opposed to the call legitimately failing
    with an errno.  They are recoverable: the Anception layer's retry /
    recovery supervisor may respawn the proxy, reboot the container and
    re-issue the call.  If recovery is disabled or exhausted the layer
    converts them to a well-defined ``SyscallError`` (EIO) so apps never
    see simulator internals.
    """

    site = "delegation"


class ChannelError(DelegationError):
    """The shared-page channel was misused or failed to carry a payload."""

    site = "channel"


class ChannelIntegrityError(ChannelError):
    """A payload was corrupted or truncated crossing the channel.

    Attributes:
        direction: ``"to-guest"`` or ``"to-host"``.
        nbytes: size of the original payload.
        delivered: bytes that arrived (``nbytes`` when the payload
            arrived whole but marked corrupt).
    """

    def __init__(self, direction, nbytes, delivered=None):
        self.direction = direction
        self.nbytes = nbytes
        self.delivered = nbytes if delivered is None else delivered
        if self.delivered != nbytes:
            detail = f"truncated to {self.delivered}"
        else:
            detail = "marked corrupt"
        super().__init__(
            f"channel payload {direction} failed integrity check "
            f"({nbytes} bytes, {detail})"
        )


class ChannelCapacityError(ChannelError):
    """A single ring descriptor is larger than the shared-page window.

    The ring transport never silently streams a descriptor past the
    kmapped window: a payload that cannot fit (payload + descriptor
    header > channel capacity) is rejected at submission time.  Bulk
    raw streaming (e.g. the msync write-back) still uses the chunked
    channel directly and stays unlimited.
    """

    def __init__(self, nbytes, capacity, call=""):
        self.nbytes = nbytes
        self.capacity = capacity
        self.call = call
        origin = f" for {call}" if call else ""
        super().__init__(
            f"ring descriptor{origin} of {nbytes} bytes exceeds the "
            f"{capacity}-byte shared-page window"
        )


class RingFull(ChannelError):
    """A descriptor was pushed into a ring that has no free slots.

    Bounded-capacity backpressure: the submitting side is expected to
    flush (ring the doorbell and drain completions) before retrying;
    the Anception layer does this transparently, so apps never see it.
    """

    def __init__(self, ring, depth):
        self.ring = ring
        self.depth = depth
        super().__init__(f"{ring} ring is full ({depth} descriptors)")


class ChannelStalled(ChannelError):
    """A channel doorbell (IRQ or hypercall) was never delivered."""

    def __init__(self, direction, reason=""):
        self.direction = direction
        self.reason = reason
        detail = f" ({reason})" if reason else ""
        super().__init__(f"channel signal lost {direction}{detail}")


class ProxyDied(DelegationError):
    """The CVM proxy backing a redirected call is dead."""

    site = "proxy"

    def __init__(self, host_pid, guest_pid, reason=""):
        self.host_pid = host_pid
        self.guest_pid = guest_pid
        self.reason = reason
        detail = f": {reason}" if reason else ""
        super().__init__(
            f"proxy (guest pid {guest_pid}) for host pid {host_pid} "
            f"died{detail}"
        )


class ContainerCrashed(DelegationError):
    """The container VM crashed while servicing a redirected call."""

    site = "cvm"

    def __init__(self, reason=""):
        self.reason = reason
        super().__init__(f"container VM crashed: {reason}")


class ProcessKilled(ReproError):
    """Raised inside a simulated program when its task is force-killed.

    Anception kills any app that changes its UID after launch; the kill is
    delivered to the running program as this exception so drivers unwind.
    """

    def __init__(self, pid, reason=""):
        self.pid = pid
        self.reason = reason
        super().__init__(f"pid {pid} killed: {reason}")
