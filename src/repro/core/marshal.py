"""Argument marshaling and pointer (fd) translation.

In the real system 46.7% of Anception's 5.2K lines pack syscall arguments
— including chasing pointers — into the shared pages.  Here marshaling
serves two purposes:

* **byte accounting** — every forwarded call's inbound payload and
  outbound result are *sized* so the channel can charge the calibrated
  per-byte copy costs; the values themselves cross by reference;
* **fd translation** — descriptor numbers live in two spaces (the app's
  on the host, the proxy's in the CVM); :class:`FdTranslationTable` keeps
  them in sync, which is the moral equivalent of pointer rewriting.
"""

from __future__ import annotations

from repro.errors import SimulationError


FD_FIRST_CALLS = frozenset({
    "read", "write", "readv", "writev", "pread64", "pwrite64",
    "lseek", "_llseek", "fstat", "fstat64", "fsync", "fdatasync",
    "ftruncate", "ftruncate64", "fchmod", "fchown", "fchown32",
    "flock", "fallocate", "getdents", "getdents64", "send",
    "sendto", "recv", "recvfrom", "ioctl", "close", "connect",
    "bind", "listen", "accept", "shutdown", "getsockname",
    "getpeername", "setsockopt", "getsockopt",
})
"""Redirected calls whose first argument is a file descriptor and must
be rewritten into the proxy's fd space.  Module-level so the syscall
conformance suite can assert coverage (a redirect-class fd call missing
here would silently ship host fd numbers to the CVM)."""

FD_PAIR_CALLS = frozenset({"sendfile"})
"""Calls translating two leading descriptors."""


def encoded_size(value):
    """Bytes this value occupies in the marshaling buffer."""
    if value is None:
        return 1
    if isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return 8
    if isinstance(value, float):
        return 8
    if isinstance(value, (bytes, bytearray, memoryview)):
        return len(value)
    if isinstance(value, str):
        return len(value.encode())
    if isinstance(value, (list, tuple)):
        return sum(encoded_size(v) for v in value) + 4
    if isinstance(value, dict):
        return (
            sum(encoded_size(k) + encoded_size(v) for k, v in value.items())
            + 4
        )
    # Structured objects (Transaction, ...) expose payload_size when they
    # know their wire footprint; otherwise fall back to repr length.
    size = getattr(value, "payload_size", None)
    if size is not None:
        return int(size) + 16
    return len(repr(value).encode())


def wire_size(name, args, kwargs):
    """Total wire footprint of a forwarded call (name + args + kwargs)."""
    size = len(name.encode())
    size += sum(encoded_size(a) for a in args)
    size += sum(
        encoded_size(k) + encoded_size(v) for k, v in kwargs.items()
    )
    return size


def marshal_call(name, args, kwargs):
    """Marshal one forwarded call: ``(call, size)`` for its descriptor.

    Arguments cross the boundary by reference (a documented simulation
    shortcut); what the channel bills is the call's faithful wire size,
    so marshaling *is* :func:`wire_size` — no bytes are rendered.
    """
    return name, wire_size(name, args, kwargs)


def result_size(result):
    """Outbound payload size of a syscall result."""
    return encoded_size(result)


class FdTranslationTable:
    """Host-fd <-> proxy-fd mapping for one enrolled task."""

    __snapshot__ = "auto"

    def __init__(self):
        self._host_to_proxy = {}

    def bind(self, host_fd, proxy_fd):
        if host_fd in self._host_to_proxy:
            raise SimulationError(f"host fd {host_fd} already bound")
        self._host_to_proxy[host_fd] = proxy_fd

    def unbind(self, host_fd):
        return self._host_to_proxy.pop(host_fd, None)

    def to_proxy(self, host_fd):
        try:
            return self._host_to_proxy[host_fd]
        except KeyError:
            raise SimulationError(
                f"host fd {host_fd} is not a CVM resource"
            ) from None

    def is_remote(self, host_fd):
        return host_fd in self._host_to_proxy

    def binds_proxy(self, proxy_fd):
        """True when some host fd already maps to ``proxy_fd``."""
        return proxy_fd in self._host_to_proxy.values()

    def __contains__(self, host_fd):
        return host_fd in self._host_to_proxy

    def remote_fds(self):
        return set(self._host_to_proxy)

    def translate_args(self, name, args):
        """Rewrite leading fd arguments into the proxy's fd space."""
        if not args:
            return args
        if name in FD_FIRST_CALLS and isinstance(args[0], int) \
                and args[0] in self:
            return (self.to_proxy(args[0]),) + tuple(args[1:])
        if name in FD_PAIR_CALLS:
            out_fd, in_fd, *rest = args
            if out_fd in self:
                out_fd = self.to_proxy(out_fd)
            if in_fd in self:
                in_fd = self.to_proxy(in_fd)
            return (out_fd, in_fd, *rest)
        return args


class RemoteFdStub:
    """Placeholder installed in the host fd table for a CVM resource.

    Keeps the app's descriptor numbering dense and collision-free; any
    direct use without going through the redirection layer is a bug.
    """

    __snapshot__ = "auto"

    def __init__(self, proxy_fd, description=""):
        self.proxy_fd = proxy_fd
        self.description = description

    def dup(self):
        return self

    def close(self):
        # Actual close is forwarded by the layer's split handler.
        return None

    def __repr__(self):
        return f"RemoteFdStub(proxy_fd={self.proxy_fd}, {self.description})"
