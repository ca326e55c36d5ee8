"""Service base class and the catalogue used for LoC accounting.

The line counts are taken from the paper's Section V-D measurement of
Android 4.2: privileged framework services total **181,260** lines, of
which **72,542** are UI/input/lifecycle management (kept on the host) and
**108,718** are not (deprivileged into the CVM — "approximately 60%").
Per-service numbers below are a consistent decomposition of those totals.
"""

from __future__ import annotations

import errno
import sys

from repro.errors import SyscallError
from repro.kernel.process import Credentials, ROOT_UID, SYSTEM_UID


class Service:
    """A privileged userspace service reachable over binder.

    Subclasses implement ``method_<name>`` handlers; unknown methods fail
    with EINVAL like a bad binder code would.

    Attributes:
        name: binder registry name.
        uid: the Linux UID the service runs as (0 for root daemons).
        lines_of_code: size used in the deprivileging accounting.
        ui_related: True for services that must stay on the trusted host.
        memory_kb: resident footprint used by the Section VI-C accounting.
    """

    __snapshot__ = "auto"

    name = "service"
    uid = SYSTEM_UID
    lines_of_code = 0
    ui_related = False
    memory_kb = 256

    HEAP_PAGES = 4

    def __init__(self, kernel):
        self.kernel = kernel
        self.task = kernel.spawn_task(
            self.process_name(), Credentials(self.uid), with_memory=True
        )
        # Give the daemon a small mapped heap (scan targets for memory
        # attacks need something to read/write).
        space = self.task.address_space
        space.set_brk(space.brk_page + self.HEAP_PAGES)
        self.call_log = []

    def process_name(self):
        return f"service:{self.name}"

    def handle_transaction(self, method, payload, sender_task):
        # Interned for the same reason as AnceptionLayer._split.
        handler = getattr(self, sys.intern(f"method_{method}"), None)
        if handler is None:
            raise SyscallError(
                errno.EINVAL, f"{self.name} has no method {method!r}"
            )
        self.call_log.append((method, sender_task.pid))
        return handler(payload, sender_task)

    def shutdown(self):
        self.kernel.reap_task(self.task)

    def __repr__(self):
        return f"{type(self).__name__}(name={self.name!r}, uid={self.uid})"


class ServiceCatalog:
    """Class-level registry of all service types (for static analysis).

    The security experiments (E8) consult this catalogue without booting
    anything: the partition of lines of code is a property of the design,
    not of a running system.
    """

    __snapshot__ = "auto"

    _service_types = []

    @classmethod
    def register(cls, service_type):
        cls._service_types.append(service_type)
        return service_type

    @classmethod
    def all_types(cls):
        return list(cls._service_types)

    @classmethod
    def ui_types(cls):
        return [s for s in cls._service_types if s.ui_related]

    @classmethod
    def delegated_types(cls):
        return [s for s in cls._service_types if not s.ui_related]

    @classmethod
    def total_lines(cls):
        return sum(s.lines_of_code for s in cls._service_types)

    @classmethod
    def ui_lines(cls):
        return sum(s.lines_of_code for s in cls.ui_types())

    @classmethod
    def delegated_lines(cls):
        return sum(s.lines_of_code for s in cls.delegated_types())


ROOT_SERVICE_UID = ROOT_UID
