"""The redirection logic (Section III-D).

Given one system call from an RE-flagged task, decide where it runs:

* **HOST** — process control, signals, memory management; plus any
  fd-based call whose descriptor is a host resource (the binder fd, a
  /system file); plus opens of read-only code (``/system``, ``/data/app``,
  the task's own ``/proc/self/exe``).
* **REDIRECT** — file, network and IPC calls, opens of everything else
  (app data, devices, procfs), and fd-based calls on CVM resources.
* **SPLIT** — fork/exec/mmap/close/dup and ioctl, which need work on both
  sides; the layer has a dedicated handler for each.
* **BLOCK** — module loading, reboot, ptrace and friends: denied outright.

The static class of each call comes from the syscall catalogue; this
module adds the *dynamic* part (path routing, fd locality, UI-transaction
inspection) that the paper implements in the host kernel module.
"""

from __future__ import annotations

import enum
import posixpath

from repro.android.binder import Transaction, is_ui_transaction
from repro.kernel.syscalls import SyscallClass, classify


class Decision(enum.Enum):
    HOST = "host"
    REDIRECT = "redirect"
    SPLIT = "split"
    BLOCK = "block"


HOST_PATH_PREFIXES = ("/system",)
CODE_PATH_PREFIXES = ("/data/app",)
HOST_DEVICES = ("/dev/binder",)

FD_CALLS = frozenset({
    "read", "write", "readv", "writev", "pread64", "pwrite64", "lseek",
    "_llseek", "fstat", "fstat64", "fsync", "fdatasync", "ftruncate",
    "send", "sendto", "recv", "recvfrom",
})


FILE_IO_CALLS = frozenset({
    "open", "read", "write", "pread64", "pwrite64", "lseek", "fstat",
    "fsync", "stat", "lstat", "access", "readlink", "mkdir", "rmdir",
    "unlink", "rename", "symlink", "chmod", "chown", "getdents",
})
"""Calls the ``file_io_on_host`` ablation keeps on the host (Section
VI-B: "If I/O latency were to matter in some context, one could choose
to keep filesystem I/O on the host side (while still keeping rest of the
code in the CVM deprivileged)")."""


class RedirectionPolicy:
    """Stateless decisions + the helpers the layer's handlers use."""

    __snapshot__ = "auto"

    def __init__(self, ui_service_names, file_io_on_host=False):
        self.ui_service_names = frozenset(ui_service_names)
        self.file_io_on_host = file_io_on_host

    # -- top-level decision ---------------------------------------------------

    def decide(self, task, name, args, remote_fds):
        """Classify one call.  ``remote_fds`` is the task's fd->proxy map."""
        static = classify(name)
        if static is SyscallClass.BLOCKED:
            return Decision.BLOCK
        if static is SyscallClass.HOST:
            return Decision.HOST
        if self.file_io_on_host and name in FILE_IO_CALLS:
            # The latency-over-deprivileging ablation: storage stays on
            # the host, everything else still moves to the CVM.
            return Decision.HOST
        if static is SyscallClass.SPLIT:
            return Decision.SPLIT
        # REDIRECT class: refine by path or fd locality.
        if name in ("open", "openat", "creat"):
            return self._route_open(task, args[0] if args else "")
        if name in ("stat", "stat64", "lstat", "lstat64", "access",
                    "readlink", "getdents", "truncate"):
            return self._route_path(task, args[0] if args else "")
        if name in FD_CALLS and args:
            return (
                Decision.REDIRECT
                if args[0] in remote_fds
                else Decision.HOST
            )
        return Decision.REDIRECT

    # -- path routing --------------------------------------------------------------

    def _normalise(self, task, path):
        if not path.startswith("/"):
            path = posixpath.join(task.cwd, path)
        return posixpath.normpath(path)

    def is_code_path(self, task, path):
        """Read-only code the host must serve (and protect)."""
        path = self._normalise(task, path)
        if any(path.startswith(p) for p in HOST_PATH_PREFIXES):
            return True
        if any(path.startswith(p) for p in CODE_PATH_PREFIXES):
            return True
        if path in (f"/proc/self/exe", f"/proc/{task.pid}/exe"):
            return True
        return False

    def _route_open(self, task, path):
        if not isinstance(path, str):
            # Garbage argument: apply the fail-safe (service it in the
            # CVM, where the proxy's kernel will fault it normally).
            return Decision.REDIRECT
        path = self._normalise(task, path)
        if self.is_code_path(task, path):
            return Decision.HOST
        if path in HOST_DEVICES:
            return Decision.HOST
        return Decision.REDIRECT

    def _route_path(self, task, path):
        return self._route_open(task, path)

    # -- ioctl inspection (the UI test) -----------------------------------------

    def ioctl_is_ui(self, request, arg):
        """True when an ioctl is UI/Input traffic that must stay on host."""
        return is_ui_transaction(self.ui_service_names, request, arg)

    def binder_target_is_app(self, arg):
        """App-to-app binder IPC proceeds on the host (Section III-D)."""
        return (
            isinstance(arg, Transaction)
            and arg.target.startswith("app:")
        )
