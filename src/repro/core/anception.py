"""The Anception interposition layer (ASIM + alternate syscall table).

This is the host kernel module of the paper: it sits at the system-call
interface, reads the one-byte redirection entry, and for flagged tasks
routes each call per the :class:`~repro.core.policy.RedirectionPolicy` —
executing it on the host, forwarding it through the channel to the app's
CVM proxy, splitting it across both kernels, or blocking it.

The real module is 5,219 lines of C of which 2,438 (46.7%) marshal and
unmarshal data; those constants are exposed for the TCB experiment (E9).
"""

from __future__ import annotations

import errno
import sys

from repro.core.channel import AnceptionChannel
from repro.core.cvm import ContainerVM
from repro.core.exec_cache import ExecutionCache
from repro.core.marshal import (
    FdTranslationTable,
    RemoteFdStub,
    marshal_call,
)
from repro.core.page_cache import HostPageCache
from repro.core.policy import Decision, RedirectionPolicy
from repro.core.pool import CVMLane, CVMPool
from repro.core.proxy import ProxyManager
from repro.core.recovery import RecoveryPolicy
from repro.core.ring import RING_FLAG_BINDER, RING_FLAG_WRITE_BEHIND
from repro.errors import (
    ChannelError,
    ChannelStalled,
    ContainerCrashed,
    DelegationError,
    ProcessKilled,
    ProxyDied,
    SimulationError,
    SyscallError,
)
from repro.kernel.loader import run_payload
from repro.kernel.memory import MAP_ANONYMOUS
from repro.kernel.process import Credentials, ROOT_UID
from repro.kernel.vfs import InodeKind
from repro.obs import prof as _prof
from repro.obs.bus import maybe_event, maybe_span
from repro.obs.prof import zone as wall_zone
from repro.perf.costs import PAGE_SIZE


ANCEPTION_LINES_OF_CODE = 5_219
ANCEPTION_MARSHALING_LINES = 2_438

marshal_call_into = marshal_call
"""Former name of the synchronous-submit encoder, kept only because
the benchmark's layer map (``perfbench/layers.py``) still wraps it."""


class PendingCall:
    """One submitted-but-not-completed call on the delegation ring."""

    __snapshot__ = "auto"

    __slots__ = ("seq", "task", "name", "args", "call_args", "kwargs",
                 "crypto_offset", "outcome")

    def __init__(self, seq, task, name, args, call_args, kwargs,
                 crypto_offset=None):
        self.seq = seq
        self.task = task
        self.name = name
        self.args = args
        self.call_args = call_args
        self.kwargs = kwargs
        self.crypto_offset = crypto_offset
        self.outcome = None
        """``("ok", result)``, ``("err", SyscallError)`` or
        ``("cancelled", SyscallError)`` once the window flushed."""

    def __repr__(self):
        state = "pending" if self.outcome is None else self.outcome[0]
        return f"PendingCall({self.name}#{self.seq}, {state})"


class DelegationBatch:
    """An open batch window: deferrable calls queue, exit flushes.

    Only ``write``/``pwrite64`` with no keyword arguments defer (their
    results are byte counts known up front); consecutive plain writes
    to the same fd merge into a single descriptor.  Everything else —
    reads, opens, another task's calls — flushes the queue first and
    runs synchronously, preserving program order.
    """

    __snapshot__ = "auto"

    DEFERRABLE = ("write", "pwrite64")

    def __init__(self, layer, task):
        self.layer = layer
        self.task = task
        self._entries = []
        self.calls_enqueued = 0
        self.calls_coalesced = 0

    def accepts(self, task, name, kwargs):
        return (
            task is self.task
            and not kwargs
            and name in self.DEFERRABLE
            and self.layer.crypto_fs is None
        )

    def add(self, task, name, args):
        """Queue one deferrable call, returning its optimistic result."""
        self.calls_enqueued += 1
        if name == "write":
            fd, data = args[0], bytes(args[1])
            last = self._entries[-1] if self._entries else None
            if last is not None and last[0] == "write" and last[1] == fd:
                last[2].append(data)
                self.calls_coalesced += 1
            else:
                self._entries.append(["write", fd, [data]])
            return len(data)
        fd, data, offset = args[0], bytes(args[1]), args[2]
        self._entries.append(("pwrite64", (fd, data, offset)))
        return len(data)

    def flush(self):
        """Forward everything queued behind one doorbell pair.

        A queued write that fails raises here (or at window exit) with
        its real errno — the price of the optimistic early return.
        """
        if not self._entries:
            return
        entries, self._entries = self._entries, []
        calls = []
        for entry in entries:
            if entry[0] == "write":
                calls.append(("write", (entry[1], b"".join(entry[2]))))
            else:
                calls.append((entry[0], entry[1]))
        self.layer._run_batch(self.task, calls)

    def __enter__(self):
        if self.layer._batch is not None:
            raise SimulationError("delegation batch windows do not nest")
        self.layer._batch = self
        return self

    def __exit__(self, exc_type, exc, tb):
        self.layer._batch = None
        if exc_type is None:
            self.flush()
        else:
            self._entries = []
        return False


WRITE_BEHIND_DEPTH = 32
"""Default bound on one task's in-flight write-behind window (clamped
to the ring depth: a window must drain behind one doorbell pair)."""


class WriteBehindEntry:
    """One deferred side-effect call staged in a write-behind window."""

    __snapshot__ = "auto"

    __slots__ = ("name", "args", "call_args", "wire", "fd", "result")

    def __init__(self, name, args, call_args, wire, fd, result):
        self.name = name
        self.args = args
        self.call_args = call_args
        self.wire = wire
        """Marshaled wire size in bytes, paid for at staging time."""
        self.fd = fd
        self.result = result

    def __repr__(self):
        return f"WriteBehindEntry({self.name}, fd={self.fd})"


class _WbWindow:
    """One task's open in-flight window of staged entries."""

    __snapshot__ = "auto"

    __slots__ = ("task", "entries")

    def __init__(self, task):
        self.task = task
        self.entries = []


class WriteBehind:
    """Per-task async submission windows plus the deferred-error ledger.

    Deferrable calls (plain writes to validated writable CVM files)
    return optimistically while their descriptors sit staged in a
    bounded per-task window; a drain ships the window through the ring
    while the host keeps running (the CVM lane absorbs the cost).  A
    drained entry that fails lands in the per-``(pid, fd)`` ledger —
    first error wins, later same-window entries get ECANCELED — and is
    surfaced exactly once at the next fence on that fd.
    """

    __snapshot__ = "auto"

    def __init__(self, depth=WRITE_BEHIND_DEPTH):
        self.depth = depth
        self.windows = {}
        """pid -> :class:`_WbWindow` of staged entries."""
        self.errors = {}
        """(pid, host_fd) -> deferred :class:`SyscallError` (first wins)."""
        self.enqueued = 0
        self.drains = 0
        self.fences = 0
        self.deferred_errors = 0
        self.max_depth_seen = 0

    def window(self, task):
        window = self.windows.get(task.pid)
        if window is None:
            window = self.windows[task.pid] = _WbWindow(task)
        return window

    def pending_windows(self):
        """Windows with staged entries, in deterministic pid order."""
        return [w for _pid, w in sorted(self.windows.items())
                if w.entries]

    def record_error(self, pid, fd, exc):
        """Ledger ``exc`` for ``(pid, fd)``; ``True`` if it was first."""
        key = (pid, fd)
        if key in self.errors:
            return False
        self.errors[key] = exc
        self.deferred_errors += 1
        return True

    def take_error(self, pid, fd):
        """Pop (surface-exactly-once) the deferred error for a fd."""
        return self.errors.pop((pid, fd), None)

    def clear(self):
        """Drop all windows and ledger entries (container reboot: the
        descriptors they named died with the old CVM)."""
        self.windows.clear()
        self.errors.clear()

    def stats(self):
        return {
            "depth": self.depth,
            "enqueued": self.enqueued,
            "drains": self.drains,
            "fences": self.fences,
            "deferred_errors": self.deferred_errors,
            "pending": sum(len(w.entries) for w in self.windows.values()),
            "max_depth_seen": self.max_depth_seen,
        }


BINDER_RING_DEPTH = 32
"""Default bound on one task's staged oneway-binder window (clamped to
the ring depth, like write-behind: a window drains behind one doorbell
pair)."""


class BinderRingEntry:
    """One oneway binder transaction staged in a batched window."""

    __snapshot__ = "auto"

    __slots__ = ("transaction", "target", "payload_bytes", "call_args",
                 "wire")

    def __init__(self, transaction, call_args, wire):
        self.transaction = transaction
        self.target = transaction.target
        self.payload_bytes = transaction.payload_size
        self.call_args = call_args
        self.wire = wire
        """Marshaled wire size in bytes, paid for at staging time."""

    def __repr__(self):
        return f"BinderRingEntry({self.transaction!r})"


class _BinderWindow:
    """One task's open window of staged oneway transactions."""

    __snapshot__ = "auto"

    __slots__ = ("task", "entries")

    def __init__(self, task):
        self.task = task
        self.entries = []


class BinderRing:
    """Batched binder delegation state: per-task oneway windows plus the
    per-``(pid, target)`` deferred-error ledger.

    Oneway (TF_ONE_WAY) transactions to pre-validated CVM services
    return ``None`` optimistically while their marshaled descriptors sit
    in a bounded per-task window; a drain ships the whole window through
    the delegation ring behind one IRQ+hypercall doorbell pair, paying
    the fixed cross-VM binder latency once per window instead of once
    per call, with execution riding the CVM clock lane.  A delivery that
    fails (injected ``binder.*`` faults, delegation failures) lands in
    the ledger — first error per ``(pid, target)`` wins — and surfaces
    exactly once at the next fence: the next reply-carrying transaction
    to that target (fence-on-reply) or an explicit barrier.
    """

    __snapshot__ = "auto"

    def __init__(self, depth=BINDER_RING_DEPTH):
        self.depth = depth
        self.windows = {}
        """pid -> :class:`_BinderWindow` of staged entries."""
        self.errors = {}
        """(pid, target) -> deferred :class:`SyscallError` (first wins)."""
        self.enqueued = 0
        self.drains = 0
        self.fences = 0
        self.deferred_errors = 0
        self.bulk_parcels = 0
        self.dropped = 0
        self.reordered = 0
        self.max_depth_seen = 0

    def window(self, task):
        window = self.windows.get(task.pid)
        if window is None:
            window = self.windows[task.pid] = _BinderWindow(task)
        return window

    def pending_windows(self):
        """Windows with staged entries, in deterministic pid order."""
        return [w for _pid, w in sorted(self.windows.items())
                if w.entries]

    def record_error(self, pid, target, exc):
        """Ledger ``exc`` for ``(pid, target)``; ``True`` if first."""
        key = (pid, target)
        if key in self.errors:
            return False
        self.errors[key] = exc
        self.deferred_errors += 1
        return True

    def take_error(self, pid, target):
        """Pop (surface-exactly-once) the deferred error for a target."""
        return self.errors.pop((pid, target), None)

    def take_any_error(self, pid):
        """Pop this pid's first ledgered error, in sorted target order.

        The explicit fence barrier names no target, but must not let a
        deferred delivery failure vanish silently — it surfaces the
        earliest key deterministically.
        """
        for key in sorted(k for k in self.errors if k[0] == pid):
            return self.errors.pop(key)
        return None

    def clear(self):
        """Drop all windows and ledger entries (container reboot: the
        services they named died with the old CVM)."""
        self.windows.clear()
        self.errors.clear()

    def stats(self):
        return {
            "depth": self.depth,
            "enqueued": self.enqueued,
            "drains": self.drains,
            "fences": self.fences,
            "deferred_errors": self.deferred_errors,
            "bulk_parcels": self.bulk_parcels,
            "dropped": self.dropped,
            "reordered": self.reordered,
            "pending": sum(len(w.entries) for w in self.windows.values()),
            "max_depth_seen": self.max_depth_seen,
        }


class AnceptionLayer:
    """Host-side redirection layer plus its container VM."""

    __snapshot__ = "auto"

    lines_of_code = ANCEPTION_LINES_OF_CODE
    marshaling_lines = ANCEPTION_MARSHALING_LINES

    def __init__(self, machine, host_system, guest_mb=64, channel_pages=8,
                 file_io_on_host=False, ring_depth=None, read_cache=False,
                 cache_pages=1024, async_delegation=False,
                 write_behind_depth=None, binder_ring=False,
                 binder_ring_depth=None, cvms=1, placement=None,
                 placement_seed=0):
        self.machine = machine
        self.host_kernel = machine.kernel
        self.host_system = host_system
        # Lane-construction config, consumed by _bind_lane at boot and
        # again on every lane-scoped reboot.
        self._guest_mb = guest_mb
        self._channel_pages = channel_pages
        self._ring_depth = ring_depth
        self._read_cache = read_cache
        self._cache_pages = cache_pages
        self._async_delegation = async_delegation
        self._write_behind_depth = write_behind_depth
        self._binder_ring_on = binder_ring
        self._binder_ring_depth = binder_ring_depth
        self._firewall_rule = None
        self.pool = CVMPool(machine.clock, cvms=cvms, placement=placement,
                            seed=placement_seed)
        """The routed transport: one :class:`~repro.core.pool.CVMLane`
        per container VM, plus the deterministic placement map.  The
        single-CVM default is byte-identical to the pre-pool layer."""
        self.pool.layer = self
        for lane in self.pool.lanes:
            self._bind_lane(lane)
        self.ring_batching = True
        """Decompose writev/readv into per-iovec ring descriptors that
        share one doorbell pair (the always-on batched path)."""
        self._batch = None
        """The open :class:`DelegationBatch` window, if any."""
        self.policy = RedirectionPolicy(
            host_system.ui_service_names(), file_io_on_host=file_io_on_host
        )
        self.exec_cache = ExecutionCache(self.host_kernel)
        self.recovery = RecoveryPolicy()
        self.recovery_log = []
        """(action, detail) pairs for every recovery step taken."""
        self.fd_tables = {}
        self.blocked_calls = []
        self.killed_apps = []
        self.decision_log = []
        self.crypto_fs = None
        self.iago_verify = False
        self._file_mappings = {}
        """(host_pid, base) -> (host_fd, file_offset, length) for
        file-backed split mmaps; consulted by the msync write-back."""
        self._root = Credentials(ROOT_UID)
        self.host_kernel.interposition = self
        self.host_kernel.anception_build = True

    # ------------------------------------------------------------------
    # lane routing and (re)binding
    # ------------------------------------------------------------------

    def _lane(self, task):
        """The CVM lane owning ``task``'s delegated state (lane 0 for
        unassigned pids, preserving legacy error paths)."""
        return self.pool.lane_for(task)

    def _lane_tags(self, lane):
        """Obs tags for one lane: empty in single-CVM worlds, so every
        record a ``cvms=1`` run emits stays byte-identical."""
        if len(self.pool.lanes) == 1:
            return {}
        return {"cvm_id": lane.cvm_id}

    def _bind_lane(self, lane):
        """(Re)arm every piece of lane-held transport state.

        The single choke point for boot *and* reboot: a fresh lane gets
        its container built here; a rebooted lane gets a new channel
        and proxy manager, cleared caches/windows/ledgers, reset
        in-flight and path maps, and the firewall re-applied — nothing
        re-binds anywhere else, so no stale reference can survive.
        """
        if lane.cvm is None:
            lane.cvm = ContainerVM(self.machine, self._guest_mb,
                                   cvm_id=lane.cvm_id)
        lane.channel = AnceptionChannel(
            lane.cvm.hypervisor, self.machine.costs, self._channel_pages,
            ring_depth=self._ring_depth,
        )
        lane.proxies = ProxyManager(lane.cvm)
        lane.inflight = []
        lane.cache_paths = {}
        if self._read_cache:
            if lane.page_cache is None:
                lane.page_cache = HostPageCache(max_pages=self._cache_pages)
            else:
                # The guest filesystem was rebuilt: every cached page
                # describes inodes that no longer exist.  Counters
                # survive (they are run-level telemetry).
                lane.page_cache.clear()
        if self._async_delegation:
            if lane.write_behind is None:
                depth = (self._write_behind_depth
                         if self._write_behind_depth is not None
                         else min(WRITE_BEHIND_DEPTH,
                                  lane.channel.ring_depth))
                lane.write_behind = WriteBehind(depth)
            else:
                # Staged windows and ledgered errnos name proxy
                # descriptors that died with the old container.
                lane.write_behind.clear()
        if self._binder_ring_on:
            if lane.binder_ring is None:
                bdepth = (self._binder_ring_depth
                          if self._binder_ring_depth is not None
                          else min(BINDER_RING_DEPTH,
                                   lane.channel.ring_depth))
                lane.binder_ring = BinderRing(bdepth)
            else:
                # Staged oneway windows name service instances (and a
                # proxy binder fd) that died with the old container.
                lane.binder_ring.clear()
        lane.cvm.kernel.network.firewall = self._firewall_rule
        return lane

    # -- single-CVM back-compat views (lane 0) -------------------------

    @property
    def cvm(self):
        """The default lane's container (legacy single-CVM view)."""
        return self.pool.default_lane.cvm

    @property
    def channel(self):
        """The default lane's channel (legacy single-CVM view)."""
        return self.pool.default_lane.channel

    @property
    def proxies(self):
        """The default lane's proxy manager (legacy single-CVM view)."""
        return self.pool.default_lane.proxies

    @property
    def page_cache(self):
        """The default lane's read cache (legacy single-CVM view)."""
        return self.pool.default_lane.page_cache

    @property
    def write_behind(self):
        """The default lane's write-behind state (legacy view)."""
        return self.pool.default_lane.write_behind

    @property
    def binder_ring(self):
        """The default lane's binder-ring state (legacy view)."""
        return self.pool.default_lane.binder_ring

    # ------------------------------------------------------------------
    # enrollment (Section III-D "File I/O": install-time data copy)
    # ------------------------------------------------------------------

    def enroll_task(self, task, install_record=None):
        """Flag a task for redirection and build its CVM counterpart.

        Placement happens here: the pool's scheduler picks the lane this
        app lives on, and every later delegated call routes to it.
        """
        task.redirection_entry = 1
        lane = self.pool.assign(task)
        lane.proxies.create_proxy(task)
        self.fd_tables[task.pid] = FdTranslationTable()
        if install_record is not None:
            self._copy_initial_data(lane, task, install_record)

    def _copy_initial_data(self, lane, task, record):
        """Copy packaged app data from the host image into the CVM."""
        data_dir = record.data_dir
        if not self.host_kernel.vfs.exists(data_dir, self._root):
            return
        for name in self.host_kernel.vfs.listdir(data_dir, self._root):
            inode = self.host_kernel.vfs.resolve(
                f"{data_dir}/{name}", self._root
            )
            if inode.data is None:
                continue
            lane.cvm.copy_in_file(
                f"{data_dir}/{name}", bytes(inode.data), record.uid
            )

    def _fd_table(self, task):
        table = self.fd_tables.get(task.pid)
        if table is None:
            raise SimulationError(f"pid {task.pid} not enrolled")
        return table

    # ------------------------------------------------------------------
    # the alternate syscall table
    # ------------------------------------------------------------------

    def dispatch(self, task, name, args, kwargs):
        table = self._fd_table(task)
        decision = self.policy.decide(task, name, args, table.remote_fds())
        self.decision_log.append((task.pid, name, decision))
        if decision is Decision.BLOCK:
            self.blocked_calls.append((task.pid, name))
            maybe_event(self.machine.clock, "proxy", f"blocked:{name}",
                        task=task, kernel=self.host_kernel.label,
                        decision=decision.value)
            raise SyscallError(errno.EPERM, "blocked by Anception", call=name)
        if decision is Decision.HOST:
            return self.host_kernel.execute_native(task, name, args, kwargs)
        if name == "shmdt":
            # statically redirect-class, but the live attachment spans
            # both kernels and must be torn down on both
            return self._handle_shmdt(task, *args)
        if decision is Decision.REDIRECT:
            if (self.ring_batching and name in ("writev", "readv")
                    and len(args) >= 2 and isinstance(args[0], int)
                    and table.is_remote(args[0])):
                return self._redirect_vectored(task, name, args[0], args[1])
            return self._redirect(task, name, args, kwargs)
        return self._split(task, name, args, kwargs)

    # ------------------------------------------------------------------
    # forwarding
    # ------------------------------------------------------------------

    def _redirect(self, task, name, args, kwargs, translated=None):
        """Forward one call to the task's proxy (API-preserving wrapper).

        The transport underneath is the submission/completion ring:
        :meth:`submit` queues the marshaled call, :meth:`flush` rings
        the doorbells, :meth:`complete` resolves the result.  Outside a
        batch window the three run back-to-back, so a lone redirected
        call still costs exactly one IRQ and one completion hypercall —
        the classic shape.  Inside an open :meth:`batch` window,
        deferrable calls are queued instead and the whole window rides
        one doorbell pair.

        Delegation-layer failures (channel corruption, a dead proxy, a
        crashed container) are retried under :attr:`recovery`; when
        recovery is disabled or exhausted they surface as EIO — a
        redirected call returns a result or a well-defined errno, never
        a hang and never a simulator exception.
        """
        if self._batch is not None:
            if self._batch.accepts(task, name, kwargs):
                return self._batch.add(task, name, args)
            # Anything the window can't defer forces the queued writes
            # out first, preserving program order.
            self._batch.flush()
        lane = self._lane(task)
        if lane.write_behind is not None:
            if translated is None and self._wb_accepts(task, name, args,
                                                       kwargs, lane=lane):
                return self._wb_enqueue(task, name, args, lane=lane)
            # Every other redirected call is a fence: the staged windows
            # drain (and the lane settles) before it runs, preserving
            # program order — and keeping the page cache coherent, since
            # the drain's completions write through before any cached
            # read below can hit.
            self._wb_fence(task, name, args, lane=lane)
        if translated is None and not kwargs:
            served = self._cache_lookup(task, name, args, lane=lane)
            if served is not None:
                return served[0]
        return self._redirect_sync(task, name, args, kwargs, translated,
                                   lane=lane)

    def _redirect_sync(self, task, name, args, kwargs, translated=None,
                       lane=None):
        """One call, one doorbell pair, synchronous result."""
        if lane is None:
            lane = self._lane(task)
        attempt = 0
        clock = self.machine.clock
        while True:
            self._ensure_container(lane, name)
            try:
                bus = clock.bus
                if bus is None or not bus._depth:
                    # Dormant bus: skip the span (and its f-string label)
                    # entirely — the window body is identical either way.
                    pending = self.submit(task, name, args, kwargs,
                                          translated, lane=lane)
                    self.flush(task, reason=name, lane=lane)
                    return self.complete(pending, lane=lane)
                with maybe_span(clock, "proxy",
                                f"forward:{name}", task=task,
                                kernel=self.host_kernel.label,
                                decision="redirect"):
                    pending = self.submit(task, name, args, kwargs,
                                          translated, lane=lane)
                    self.flush(task, reason=name, lane=lane)
                    return self.complete(pending, lane=lane)
            except DelegationError as failure:
                attempt += 1
                if not self.recovery.enabled \
                        or attempt > self.recovery.max_retries:
                    raise SyscallError(
                        errno.EIO, f"delegation failed: {failure}", call=name
                    ) from failure
                self._recover_from(task, failure, attempt, name)

    def _redirect_vectored(self, task, name, fd, vec):
        """writev/readv: every iovec entry rides one doorbell pair.

        The vector is decomposed into per-entry ``write``/``read`` ring
        descriptors — the same per-call marshal and per-byte copy costs
        as issuing them separately — but the whole vector is submitted
        behind a single IRQ and completed behind a single hypercall,
        so doorbell count stays flat in the vector length.
        """
        vec = tuple(vec)
        sub_call = "write" if name == "writev" else "read"
        if not vec:
            return 0 if name == "writev" else []
        lane = self._lane(task)
        if lane.write_behind is not None:
            if name == "writev" and self._wb_accepts_writev(task, fd, vec,
                                                            lane=lane):
                # Defer per-iovec, matching the sync decomposition: each
                # entry becomes its own staged write descriptor.
                return sum(
                    self._wb_enqueue(task, "write", (fd, entry), lane=lane)
                    for entry in vec
                )
            self._wb_fence(task, name, (fd,), lane=lane)
        if name == "readv":
            served = self._cache_readv(task, fd, vec)
            if served is not None:
                return served
        if self.crypto_fs is not None:
            # The crypto transform keys off the proxy's live file offset,
            # which only advances as each entry executes — serialize.
            results = [
                self._redirect_sync(task, sub_call, (fd, entry), {})
                for entry in vec
            ]
            return sum(results) if name == "writev" else results
        attempt = 0
        clock = self.machine.clock
        while True:
            self._ensure_container(lane, name)
            try:
                bus = clock.bus
                if bus is None or not bus._depth:
                    pendings = [
                        self.submit(task, sub_call, (fd, entry), {},
                                    lane=lane)
                        for entry in vec
                    ]
                    self.flush(task, reason=name, lane=lane)
                    results = [self.complete(p, lane=lane) for p in pendings]
                    return sum(results) if name == "writev" else results
                with maybe_span(clock, "proxy",
                                f"forward:{name}", task=task,
                                kernel=self.host_kernel.label,
                                decision="redirect", batch=len(vec)):
                    pendings = [
                        self.submit(task, sub_call, (fd, entry), {},
                                    lane=lane)
                        for entry in vec
                    ]
                    self.flush(task, reason=name, lane=lane)
                    results = [self.complete(p, lane=lane) for p in pendings]
                return sum(results) if name == "writev" else results
            except DelegationError as failure:
                attempt += 1
                if not self.recovery.enabled \
                        or attempt > self.recovery.max_retries:
                    raise SyscallError(
                        errno.EIO, f"delegation failed: {failure}", call=name
                    ) from failure
                self._recover_from(task, failure, attempt, name)

    def _ensure_container(self, lane, name):
        """Refuse (or repair) forwarding into a dead/compromised CVM."""
        if lane.cvm.crashed:
            if self.recovery.enabled and self.recovery.reboot_on_crash:
                self._recover_reboot(lane, f"container down before {name}")
            else:
                raise SyscallError(
                    errno.EIO, "container VM is down", call=name
                )
        if lane.cvm.compromised and self.recovery.enabled \
                and self.recovery.reboot_on_compromise:
            self._recover_reboot(lane, "container compromised")

    def _recover_from(self, task, failure, attempt, name):
        """One bounded recovery step between forwarding attempts."""
        lane = self._lane(task)
        self.machine.clock.advance(
            self.recovery.backoff_for(attempt), "anception:retry-backoff"
        )
        self.recovery_log.append(
            ("retry", f"{name} attempt {attempt}: {failure}")
        )
        maybe_event(self.machine.clock, "recovery", f"retry:{name}",
                    task=task, kernel=self.host_kernel.label,
                    attempt=attempt, cause=type(failure).__name__)
        if isinstance(failure, ContainerCrashed) or lane.cvm.crashed:
            if self.recovery.reboot_on_crash:
                self._recover_reboot(lane, str(failure))
        elif isinstance(failure, ProxyDied) and self.recovery.respawn_proxies:
            lane.proxies.respawn_proxy(task)
            self.recovery_log.append(
                ("respawn-proxy", f"host pid {task.pid}")
            )
            maybe_event(self.machine.clock, "recovery", "respawn-proxy",
                        task=task, kernel=lane.cvm.kernel.label)

    def _recover_reboot(self, lane, reason):
        """Reboot one container as a recovery action (cost + telemetry)."""
        self.machine.clock.advance(
            self.recovery.reboot_cost_ns, "anception:cvm-reboot"
        )
        survivors = self.reboot_cvm(lane)
        self.recovery_log.append(("reboot-cvm", reason))
        maybe_event(self.machine.clock, "recovery", "reboot-cvm",
                    kernel=self.host_kernel.label, reason=reason,
                    survivors=survivors, **self._lane_tags(lane))

    def submit(self, task, name, args, kwargs, translated=None, wire=None,
               ring_flags=0, lane=None):
        """Marshal one call onto the submit ring; no doorbell yet.

        Returns the :class:`PendingCall` tracking it.  A full ring
        flushes first (bounded backpressure): the in-flight window is
        retired behind one doorbell pair before new work queues.  A
        pre-staged ``wire`` size (write-behind or binder-window drain)
        skips the marshal step — the host already paid for packing when
        the call deferred.  ``ring_flags`` overrides the descriptor flags
        (the binder drain tags its descriptors ``RING_FLAG_BINDER``).
        Window-shaped callers resolve the task's ``lane`` once and pass
        it down instead of paying the pool lookup per descriptor.
        """
        if _prof._ACTIVE is None:
            return self._submit_impl(task, name, args, kwargs, translated,
                                     wire, ring_flags, lane)
        with wall_zone("anception.submit"):
            return self._submit_impl(task, name, args, kwargs, translated,
                                     wire, ring_flags, lane)

    def _submit_impl(self, task, name, args, kwargs, translated, wire,
                     ring_flags, lane):
        if lane is None:
            lane = self._lane(task)
        if not lane.channel.submit_ring.free_slots():
            self.flush(task, reason="ring-full", lane=lane)
        lane.proxies.proxy_for(task)  # not enrolled -> SimulationError
        table = self._fd_table(task)
        call_args = translated if translated is not None else (
            table.translate_args(name, args)
        )
        crypto_offset = None
        prestaged = wire is not None
        clock = self.machine.clock
        if wire is None:
            if self.crypto_fs is not None and args:
                call_args, crypto_offset = self._crypto_outbound(
                    task, name, args, call_args
                )
            _call, wire = marshal_call(name, call_args, kwargs)
            clock.advance(
                self.machine.costs.marshal_fixed_ns, "anception:marshal"
            )
        clock.advance(
            self.machine.costs.proxy_dispatch_ns, "anception:proxy-post"
        )
        seq = lane.channel.submit_ring.push(
            name, wire,
            flags=ring_flags if ring_flags
            else (RING_FLAG_WRITE_BEHIND if prestaged else 0),
        )
        pending = PendingCall(seq, task, name, args, call_args, kwargs,
                              crypto_offset)
        lane.inflight.append(pending)
        return pending

    def flush(self, task=None, reason=None, lane=None):
        """Ring the doorbells: one IRQ submits every in-flight call,
        the CVM drains the ring, one hypercall completes the batch.

        A flush settles exactly one lane — the task's own — so sibling
        CVMs' in-flight windows keep riding their own doorbells.

        When every call in the window failed with an errno there is
        nothing in the completion ring and the hypercall is skipped —
        the same single-doorbell shape the classic errno path had.
        """
        if lane is None:
            lane = (self._lane(task) if task is not None
                    else self.pool.default_lane)
        if not lane.inflight:
            return
        if _prof._ACTIVE is None:
            return self._flush_impl(lane, reason)
        with wall_zone("anception.flush"):
            return self._flush_impl(lane, reason)

    def _flush_impl(self, lane, reason):
        pendings, lane.inflight = lane.inflight, []
        count = len(pendings)
        if reason is None:
            reason = pendings[0].name if count == 1 else f"batch:{count}"
        elif count > 1:
            reason = f"{reason}:{count}"
        proxy_for = lane.proxies.proxy_for
        work = {
            p.seq: (proxy_for(p.task), p.name, p.call_args, p.kwargs)
            for p in pendings
        }
        try:
            self._signal_guest_reliably(lane, reason, pendings[0].task,
                                        coalesced=count)
            outcomes = lane.proxies.drain(lane.channel, work)
            completions = len(lane.channel.complete_ring)
            self._drain_completions(lane, pendings, outcomes)
            if completions:
                self._signal_host_or_poll(lane, reason, pendings[0].task,
                                          coalesced=completions)
        except DelegationError:
            # Whatever was mid-flight is unrecoverable state now; the
            # retry loop re-submits from scratch against clean rings.
            lane.channel.reset_rings()
            raise

    def _drain_completions(self, lane, pendings, outcomes):
        """Pop the completion ring dry and bind outcomes to pendings.

        Completions may arrive out of submission order (the
        ``ring.reorder`` site); sequence matching absorbs that.  Corrupt
        slots, completions forged for a seq nobody submitted, and
        missing outcomes surface as delegation errors for the recovery
        supervisor — a lying CVM costs a retry or an EIO, never the
        host.
        """
        while True:
            descriptor = lane.channel.complete_ring.pop()
            if descriptor is None:
                break
            if descriptor.seq not in outcomes:
                raise ChannelError(
                    f"{lane.name}: completion seq {descriptor.seq} "
                    f"matches no submitted call"
                )
        for pending in pendings:
            outcome = outcomes.get(pending.seq)
            if outcome is None:
                raise ChannelError(
                    f"no outcome for {pending.name}#{pending.seq}"
                )
            pending.outcome = outcome

    def complete(self, pending, lane=None):
        """Resolve one pending call to its result (or typed errno).

        An unflushed pending flushes its window first, so callers can
        always ``complete()`` in any order after batched submission.
        Window-shaped callers pass the already-resolved ``lane``.
        """
        if lane is None:
            lane = self._lane(pending.task)
        if pending.outcome is None:
            self.flush(pending.task, lane=lane)
        kind, value = pending.outcome
        if kind == "err":
            raise value
        if kind == "cancelled":
            raise SyscallError(
                errno.ECANCELED,
                "aborted by earlier failure in batch",
                call=pending.name,
            )
        adopted = self._adopt_result(pending.task, pending.name,
                                     pending.args, value)
        if lane.page_cache is not None and self.crypto_fs is None:
            self._cache_observe(pending.task, pending.name, pending.args,
                                adopted, lane=lane)
        if self.crypto_fs is not None:
            adopted = self._crypto_inbound(
                pending.task, pending.name, pending.args, adopted,
                pending.crypto_offset,
            )
        return adopted

    def _signal_guest_reliably(self, lane, name, task=None, coalesced=1):
        """Ring the guest doorbell, re-arming after dropped IRQs.

        One doorbell may announce many ring descriptors (``coalesced``),
        which is the whole point of the batched transport.  Each lost
        interrupt costs one timeout before the re-signal; when the
        bounded retries are exhausted the call stalls out as a
        recoverable :class:`ChannelStalled` instead of hanging forever.
        """
        if lane.channel.signal_guest(name, coalesced=coalesced):
            return
        for _ in range(self.recovery.signal_retries):
            self.machine.clock.advance(
                self.recovery.signal_timeout_ns, "anception:irq-timeout"
            )
            self.recovery_log.append(("resignal-irq", name))
            maybe_event(self.machine.clock, "recovery", "resignal-irq",
                        task=task, kernel=self.host_kernel.label, call=name)
            if lane.channel.signal_guest(name, coalesced=coalesced):
                return
        raise ChannelStalled("to-guest", f"irq lost for {name}")

    def _signal_host_or_poll(self, lane, name, task=None, coalesced=1):
        """Completion hypercall, falling back to a timed host-side poll.

        A lost hypercall is survivable: the completions already sit in
        the shared pages, so the host times out and polls them out —
        one timeout per doorbell, however many descriptors it covered.
        """
        if lane.channel.signal_host(name, coalesced=coalesced):
            return
        self.machine.clock.advance(
            self.recovery.signal_timeout_ns, "anception:hypercall-poll"
        )
        self.recovery_log.append(("hypercall-poll", name))
        maybe_event(self.machine.clock, "recovery", "hypercall-poll",
                    task=task, kernel=self.host_kernel.label, call=name)

    def _crypto_outbound(self, task, name, args, call_args):
        """Encrypt write payloads before they cross into the CVM."""
        fs = self.crypto_fs
        offset = None
        if name == "write":
            host_fd, data = args[0], args[1]
            offset = self._proxy_offset(task, host_fd)
            ciphertext = fs.transform_write(task, host_fd, data, offset)
            call_args = (call_args[0], ciphertext) + tuple(call_args[2:])
        elif name == "pwrite64":
            host_fd, data, offset = args[0], args[1], args[2]
            ciphertext = fs.transform_write(task, host_fd, data, offset)
            call_args = (call_args[0], ciphertext) + tuple(call_args[2:])
        elif name == "read":
            offset = self._proxy_offset(task, args[0])
        elif name == "pread64":
            offset = args[2]
        return call_args, offset

    def _crypto_inbound(self, task, name, args, result, offset):
        """Decrypt read results after they return from the CVM."""
        fs = self.crypto_fs
        if name == "open" and isinstance(result, int):
            fs.on_open(task, self._abs(task, args[0]), result)
        elif name in ("read", "pread64") and isinstance(result, bytes):
            result = fs.transform_read(
                task, args[0], result, offset or 0,
                verify_integrity=self.iago_verify,
            )
        return result

    def _proxy_offset(self, task, host_fd):
        """Current file offset of the proxy-side open file, if any."""
        table = self._fd_table(task)
        if not table.is_remote(host_fd):
            return 0
        proxy = self._lane(task).proxies.proxy_for(task)
        desc = proxy.guest_task.fd_table.get(table.to_proxy(host_fd))
        return getattr(desc, "offset", 0)

    def _adopt_result(self, task, name, args, result):
        """Map resource-allocating results back into the host fd space."""
        table = self._fd_table(task)
        if name in ("open", "socket", "accept") and isinstance(result, int):
            label = args[0] if name == "open" and args else name
            host_fd = task.alloc_fd(RemoteFdStub(result, str(label)))
            table.bind(host_fd, result)
            return host_fd
        if name == "pipe" and isinstance(result, tuple):
            host_fds = []
            for proxy_fd in result:
                host_fd = task.alloc_fd(RemoteFdStub(proxy_fd, "pipe"))
                table.bind(host_fd, proxy_fd)
                host_fds.append(host_fd)
            return tuple(host_fds)
        return result

    # ------------------------------------------------------------------
    # host-side page cache for delegated reads
    # ------------------------------------------------------------------

    def _remote_file(self, task, host_fd, lane=None):
        """Proxy-side OpenFile behind a remote fd, if it is a plain file.

        Anything that is not a regular CVM file — sockets, pipes, device
        nodes, host fds — is uncacheable and returns ``None``.
        """
        if not isinstance(host_fd, int):
            return None
        table = self._fd_table(task)
        if not table.is_remote(host_fd):
            return None
        if lane is None:
            lane = self._lane(task)
        desc = lane.proxies.descriptor_for(
            task, table.to_proxy(host_fd)
        )
        inode = getattr(desc, "inode", None)
        if inode is None or inode.kind is not InodeKind.FILE:
            return None
        return desc

    def _cache_lookup(self, task, name, args, lane=None):
        """Serve a redirected read from the page cache, if warm.

        Returns ``(result,)`` on a hit, ``None`` to forward the call
        unchanged (the demand-miss path is byte-identical to the classic
        redirect).  A hit skips both doorbells and the channel copy and
        pays only ``cache_hit_ns`` per page.  Crypto-FS files, non-file
        descriptors, and a crashed/compromised container all bypass.
        """
        if lane is None:
            lane = self._lane(task)
        cache = lane.page_cache
        if cache is None or self.crypto_fs is not None:
            return None
        if name not in ("read", "pread64") or len(args) < 2:
            return None
        if lane.cvm.crashed or lane.cvm.compromised:
            return None
        desc = self._remote_file(task, args[0], lane=lane)
        if desc is None or not getattr(desc, "readable", False):
            return None
        length = args[1]
        offset = desc.offset if name == "read" else (
            args[2] if len(args) > 2 else 0
        )
        if not isinstance(length, int) or length < 0 \
                or not isinstance(offset, int) or offset < 0:
            return None
        ino = desc.inode.ino
        engine = self.machine.clock.faults
        if engine is not None:
            if engine.cache_evict(call=name):
                dropped = cache.drop_range(ino, offset, max(length, 1))
                if dropped:
                    maybe_event(self.machine.clock, "cache-invalidate",
                                "evict", task=task,
                                kernel=self.host_kernel.label, ino=ino,
                                pages=dropped)
            if engine.cache_stale(call=name):
                dropped = cache.invalidate_ino(ino)
                # the log keys on the host fd, not the ino: inode numbers
                # come from a process-global counter, and the chaos
                # report must replay byte-identically across runs
                self.recovery_log.append(
                    ("cache-invalidate",
                     f"stale fd {args[0]} ({dropped} pages), refetching")
                )
                maybe_event(self.machine.clock, "cache-invalidate",
                            "stale", task=task,
                            kernel=self.host_kernel.label, ino=ino,
                            pages=dropped)
                maybe_event(self.machine.clock, "recovery",
                            "cache-invalidate", task=task,
                            kernel=self.host_kernel.label, call=name)
                cache.misses += 1
                return None
        result = cache.lookup(ino, offset, length)
        if result is None:
            maybe_event(self.machine.clock, "cache-miss", name, task=task,
                        kernel=self.host_kernel.label, ino=ino)
            return None
        pages = max(1, -(-len(result) // PAGE_SIZE))
        clock = self.machine.clock
        bus = clock.bus
        if bus is None or not bus._depth:
            clock.advance(
                self.machine.costs.cache_hit_ns * pages,
                "anception:cache-hit",
            )
        else:
            with maybe_span(clock, "cache-hit",
                            f"{name}:{len(result)}B", task=task,
                            kernel=self.host_kernel.label, ino=ino,
                            bytes=len(result), pages=pages):
                clock.advance(
                    self.machine.costs.cache_hit_ns * pages,
                    "anception:cache-hit",
                )
        if name == "read":
            # The layer owns the canonical offset for cached sequential
            # reads; the shadow descriptor *is* the proxy's open file,
            # so both views stay coherent.
            desc.offset = offset + len(result)
        return (result,)

    def _cache_readv(self, task, fd, lengths):
        """Serve a whole readv from cache iff *every* entry is warm.

        Any cold entry forwards the entire vector through the ring —
        partial service would split one doorbell pair into two.
        """
        lane = self._lane(task)
        cache = lane.page_cache
        if cache is None or self.crypto_fs is not None:
            return None
        if lane.cvm.crashed or lane.cvm.compromised:
            return None
        desc = self._remote_file(task, fd)
        if desc is None or not getattr(desc, "readable", False):
            return None
        ino = desc.inode.ino
        offset = desc.offset
        results = []
        pages = 0
        for length in lengths:
            if not isinstance(length, int) or length < 0:
                return None
            chunk = cache.peek(ino, offset, length)
            if chunk is None:
                cache.misses += 1
                maybe_event(self.machine.clock, "cache-miss", "readv",
                            task=task, kernel=self.host_kernel.label,
                            ino=ino)
                return None
            results.append(chunk)
            offset += len(chunk)
            pages += max(1, -(-len(chunk) // PAGE_SIZE))
        cache.count_hits(len(results))
        total = sum(len(r) for r in results)
        with maybe_span(self.machine.clock, "cache-hit",
                        f"readv:{total}B", task=task,
                        kernel=self.host_kernel.label, ino=ino,
                        bytes=total, pages=pages, batch=len(results)):
            self.machine.clock.advance(
                self.machine.costs.cache_hit_ns * pages,
                "anception:cache-hit",
            )
        desc.offset = offset
        return results

    _CACHE_FD_MUTATORS = ("write", "pwrite64", "ftruncate", "ftruncate64",
                          "fallocate")
    _CACHE_PATH_MUTATORS = ("unlink", "rename", "truncate")

    def _cache_observe(self, task, name, args, result, lane=None):
        """Fill and write-through coherence at the completion choke point.

        Every redirected call funnels through :meth:`complete`, so this
        is the single place the cache learns about data movement:
        completed reads fill (demand pages plus a channel window of
        read-ahead, staged while the doorbell pair is already paid);
        completed mutations write through or invalidate *before* any
        later lookup can run.
        """
        if lane is None:
            lane = self._lane(task)
        cache = lane.page_cache
        if name in ("read", "pread64") and isinstance(result, bytes):
            desc = self._remote_file(task, args[0] if args else None,
                                     lane=lane)
            if desc is None:
                return
            if name == "pread64":
                start = args[2] if len(args) > 2 else 0
            else:
                start = desc.offset - len(result)
            if not isinstance(start, int) or start < 0:
                return
            demanded, ahead = cache.fill_window(
                desc.inode.ino, bytes(desc.inode.data), start,
                max(len(result), 1), lane.channel.window_bytes,
            )
            if demanded or ahead:
                clock = self.machine.clock
                bus = clock.bus
                if bus is not None and bus._depth:
                    with maybe_span(clock, "cache-fill",
                                    f"{name}:{demanded + ahead}p", task=task,
                                    kernel=self.host_kernel.label,
                                    ino=desc.inode.ino,
                                    pages=demanded + ahead, readahead=ahead):
                        pass  # overlapped staging: zero simulated time
            return
        if name in self._CACHE_FD_MUTATORS:
            desc = self._remote_file(task, args[0] if args else None,
                                     lane=lane)
            if desc is not None:
                touched = cache.refresh_ino(desc.inode.ino,
                                            bytes(desc.inode.data))
                if touched:
                    maybe_event(self.machine.clock, "cache-invalidate",
                                "write-through", task=task,
                                kernel=self.host_kernel.label,
                                ino=desc.inode.ino, pages=touched)
            return
        if name in self._CACHE_PATH_MUTATORS:
            for path_arg in args[:2] if name == "rename" else args[:1]:
                if not isinstance(path_arg, str):
                    continue
                path = self._abs(task, path_arg)
                ino = (lane.cache_paths.get(path) if name == "truncate"
                       else lane.cache_paths.pop(path, None))
                if ino is None:
                    continue
                dropped = cache.invalidate_ino(ino)
                if dropped:
                    maybe_event(self.machine.clock, "cache-invalidate",
                                name, task=task,
                                kernel=self.host_kernel.label, ino=ino,
                                pages=dropped)
            return
        if name == "open" and isinstance(result, int) and args \
                and isinstance(args[0], str):
            desc = self._remote_file(task, result)
            if desc is None:
                return
            lane.cache_paths[self._abs(task, args[0])] = desc.inode.ino
            if cache.knows(desc.inode.ino):
                # Re-snapshot: an O_TRUNC reopen just emptied the file.
                cache.refresh_ino(desc.inode.ino, bytes(desc.inode.data))

    # ------------------------------------------------------------------
    # split-execution handlers
    # ------------------------------------------------------------------

    def _split(self, task, name, args, kwargs):
        # Interned: the interpreter's attribute cache keeps the last name
        # looked up per slot, so a fresh string per call would pin
        # hash-dependent garbage on the heap.
        handler = getattr(self, sys.intern("_split_" + name), None)
        if handler is None:
            # Split-class call with no dedicated handler in the prototype:
            # run the host semantics (matching the paper's conservative
            # default of trusting the host for ambiguous state).
            return self.host_kernel.execute_native(task, name, args, kwargs)
        return handler(task, *args, **kwargs)

    def _split_close(self, task, fd):
        table = self._fd_table(task)
        if table.is_remote(fd):
            proxy_fd = table.to_proxy(fd)
            self._redirect(task, "close", (fd,), {},
                           translated=(proxy_fd,))
            table.unbind(fd)
            task.remove_fd(fd)
            if self.crypto_fs is not None:
                self.crypto_fs.on_close(task, fd)
            wb = self._lane(task).write_behind
            if wb is not None:
                # close is a fence: teardown completes, then any errno
                # the window deferred for this fd surfaces (once) here.
                deferred = wb.take_error(task.pid, fd)
                if deferred is not None:
                    raise SyscallError(
                        deferred.errno,
                        f"deferred write-behind error on fd {fd}",
                        call="close",
                    ) from deferred
            return 0
        return self.host_kernel.execute_native(task, "close", (fd,), {})

    def _split_dup(self, task, fd):
        table = self._fd_table(task)
        if table.is_remote(fd):
            proxy_fd = table.to_proxy(fd)
            new_proxy_fd = self._redirect(
                task, "dup", (fd,), {}, translated=(proxy_fd,)
            )
            host_fd = task.alloc_fd(RemoteFdStub(new_proxy_fd, "dup"))
            table.bind(host_fd, new_proxy_fd)
            return host_fd
        return self.host_kernel.execute_native(task, "dup", (fd,), {})

    def _split_dup2(self, task, fd, newfd):
        table = self._fd_table(task)
        if table.is_remote(fd):
            proxy_fd = table.to_proxy(fd)
            new_proxy_fd = self._redirect(
                task, "dup", (fd,), {}, translated=(proxy_fd,)
            )
            if newfd in task.fd_table:
                self._split_close(task, newfd)
            task.install_fd(newfd, RemoteFdStub(new_proxy_fd, "dup2"))
            table.bind(newfd, new_proxy_fd)
            return newfd
        return self.host_kernel.execute_native(task, "dup2", (fd, newfd), {})

    def _split_fcntl(self, task, fd, cmd, arg=0):
        table = self._fd_table(task)
        if table.is_remote(fd):
            proxy_fd = table.to_proxy(fd)
            result = self._redirect(
                task, "fcntl", (fd, cmd, arg), {},
                translated=(proxy_fd, cmd, arg),
            )
            if cmd == 0 and isinstance(result, int):  # F_DUPFD
                host_fd = task.alloc_fd(RemoteFdStub(result, "fcntl-dup"))
                table.bind(host_fd, result)
                return host_fd
            return result
        return self.host_kernel.execute_native(
            task, "fcntl", (fd, cmd, arg), {}
        )

    def _split_fcntl64(self, task, fd, cmd, arg=0):
        return self._split_fcntl(task, fd, cmd, arg)

    def _split_ioctl(self, task, fd, request, arg=None):
        table = self._fd_table(task)
        if table.is_remote(fd):
            return self._redirect(task, "ioctl", (fd, request, arg), {})
        # Host fd: binder traffic gets the UI inspection.  Waiting for
        # input is an observation point — anything the app fired at the
        # services must land before the world answers back
        # (fence-on-read).
        if self._lane(task).binder_ring is not None:
            from repro.android.binder import IOC_WAIT_INPUT_EVT

            if request == IOC_WAIT_INPUT_EVT:
                self._binder_settle(task, "wait-input")
        if self.policy.ioctl_is_ui(request, arg):
            return self.host_kernel.execute_native(
                task, "ioctl", (fd, request, arg), {}
            )
        if self.policy.binder_target_is_app(arg):
            return self.host_kernel.execute_native(
                task, "ioctl", (fd, request, arg), {}
            )
        from repro.android.binder import BINDER_WRITE_READ, Transaction

        if request == BINDER_WRITE_READ and isinstance(arg, Transaction):
            return self._forward_binder(task, fd, request, arg)
        # Non-binder ioctl on a host fd (e.g. a /system file): host.
        return self.host_kernel.execute_native(
            task, "ioctl", (fd, request, arg), {}
        )

    def _forward_binder(self, task, fd, request, transaction):
        """Non-UI binder transaction: full cross-VM round trip.

        The proxy opens the CVM's /dev/binder lazily and replays the
        transaction against the CVM's service instances.  Cost: the fixed
        cross-VM binder latency plus per-byte payload (the channel's world
        switches are charged by the generic forward path).

        With the batched binder ring on, oneway transactions to known
        CVM services defer into a per-task window instead
        (:meth:`_binder_enqueue`); everything reply-carrying is a fence —
        every staged oneway delivers first, and a deferred delivery
        error for this ``(pid, target)`` surfaces here (fence-on-reply).
        Parcels above a page then skip the marshal-interleaved per-byte
        rate and stream through the ring's bulk-copy window at the
        ``binder_parcel_page_ns`` page rate.
        """
        lane = self._lane(task)
        if lane.binder_ring is not None:
            if self._binder_accepts(task, transaction):
                return self._binder_enqueue(task, request, transaction)
            self._binder_fence(task, transaction.target, "transact")
        costs = self.machine.costs
        clock = self.machine.clock
        clock.advance(costs.binder_cvm_fixed_ns, "anception:binder-cvm")
        payload = transaction.payload_size
        proxy = lane.proxies.proxy_for(task)
        proxy_binder_fd = self._ensure_proxy_binder(lane, proxy)
        if lane.binder_ring is not None and payload > PAGE_SIZE:
            lane.binder_ring.bulk_parcels += 1
            clock.advance(
                costs.binder_parcel_page_ns * costs.chunks(payload),
                "anception:binder-parcel",
            )
            with lane.channel.bulk_copy():
                return self._redirect(
                    task, "ioctl", (fd, request, transaction), {},
                    translated=(proxy_binder_fd, request, transaction),
                )
        clock.advance(
            int(costs.binder_cvm_per_byte_ns * payload),
            "anception:binder-bytes",
        )
        return self._redirect(
            task, "ioctl", (fd, request, transaction), {},
            translated=(proxy_binder_fd, request, transaction),
        )

    def _ensure_proxy_binder(self, lane, proxy):
        guest_task = proxy.guest_task
        for fd, desc in guest_task.fd_table.items():
            if getattr(desc, "path", "") == "/dev/binder":
                return fd
        open_file = lane.cvm.kernel.vfs.open(
            "/dev/binder", 0x2, guest_task.credentials
        )
        return guest_task.alloc_fd(open_file)

    def _split_mmap(self, task, length, prot, flags, addr=None, fd=None,
                    offset=0):
        return self._split_mmap2(task, length, prot, flags, addr, fd, offset)

    def _split_mmap2(self, task, length, prot, flags, addr=None, fd=None,
                     offset=0):
        """Split mmap (Section III-D "Memory-mapped files").

        File-backed mappings of CVM files: the proxy maps + pins pages in
        the container, the data is copied across once, and the host maps
        it into the app — so later faults never cross the boundary.  All
        mappings are mirrored as zero-filled reservations in the proxy so
        address-space shapes agree; *content* stays host-side (the
        sock_sendpage shellcode never reaches the CVM).
        """
        table = self._fd_table(task)
        if fd is not None and table.is_remote(fd):
            self._lane(task).proxies.proxy_for(task)
            proxy_fd = table.to_proxy(fd)
            # Proxy-side mapping with forced read faults (pinning).
            data = self._redirect(
                task, "pread64", (fd, length, offset), {},
                translated=(proxy_fd, length, offset),
            )
            base = task.address_space.mmap(length, prot, flags, addr)
            if data:
                task.address_space.write(base, data, need_prot=0)
            self._mirror_reservation(task, length, prot, flags,
                                     addr if flags & 0x10 else base)
            self._file_mappings[(task.pid, base)] = (fd, offset, length)
            return base
        # Anonymous (or host-file) mapping: host executes; mirror shape.
        result = self.host_kernel.execute_native(
            task, "mmap2", (length, prot, flags, addr, fd, offset), {}
        )
        if isinstance(result, int):
            self._mirror_reservation(task, length, prot, flags, result)
        return result

    def _mirror_reservation(self, task, length, prot, flags, addr):
        if addr is None:
            return
        from repro.kernel.memory import MAP_FIXED

        proxy = self._lane(task).proxies.proxy_for(task)
        space = proxy.guest_task.address_space
        try:
            space.mmap(length, prot, flags | MAP_ANONYMOUS | MAP_FIXED, addr)
        except SyscallError:
            pass  # overlapping reservation: shape already present

    def _split_msync(self, task, addr, length, flags=0):
        """Write-back: synchronise host page content with the CVM file.

        For file-backed split mappings the modified host bytes are
        pwritten back through the proxy; anonymous regions just cross
        the channel (nothing to persist).
        """
        mapping = self._find_file_mapping(task, addr)
        if mapping is not None:
            base, (host_fd, file_offset, map_length) = mapping
            sync_offset = addr - base
            sync_length = min(length, map_length - sync_offset)
            data = task.address_space.read(addr, sync_length, need_prot=0)
            self._redirect(
                task, "pwrite64",
                (host_fd, data, file_offset + sync_offset), {},
            )
            return 0
        data = task.address_space.read(addr, length, need_prot=0)
        lane = self._lane(task)
        lane.channel.send_to_guest(data)
        self._signal_guest_reliably(lane, "msync", task)
        self._signal_host_or_poll(lane, "msync-ack", task)
        return 0

    def _find_file_mapping(self, task, addr):
        for (pid, base), info in self._file_mappings.items():
            if pid == task.pid and base <= addr < base + info[2]:
                return base, info
        return None

    def _split_shmat(self, task, shmid):
        """Split shmat: content frames on the host, id from the CVM.

        ``shmid`` names a CVM-registry segment (shmget was redirected).
        The layer keeps one host-side shadow segment per CVM id; every
        enrolled app attaching that id maps the *same host frames* — so
        apps share memory at native speed while the CVM only ever holds
        the (empty) bookkeeping segment.
        """
        lane = self._lane(task)
        cvm_segment = lane.cvm.kernel.shm.require(shmid)
        shadow = lane.shm_shadows.get(shmid)
        if shadow is None:
            shadow = self.host_kernel.shm.shmget(
                task, 0, cvm_segment.size, 0o1000
            )
            lane.shm_shadows[shmid] = shadow
        base = self.host_kernel.execute_native(task, "shmat", (shadow,), {})
        lane.shm_attach_map[(task.pid, base)] = shmid
        # The proxy attaches the CVM segment too, keeping the container's
        # attach counts honest (its frames stay zero-filled).
        proxy = lane.proxies.proxy_for(task)
        lane.cvm.kernel.shm.shmat(proxy.guest_task, shmid)
        return base

    def _handle_shmdt(self, task, addr):
        """Detach both sides of a split shared-memory attachment."""
        result = self.host_kernel.execute_native(task, "shmdt", (addr,), {})
        lane = self._lane(task)
        shmid = lane.shm_attach_map.pop((task.pid, addr), None)
        if shmid is not None:
            proxy = lane.proxies.proxy_for(task)
            guest_shm = lane.cvm.kernel.shm
            for (pid, guest_addr), sid in list(guest_shm._attached.items()):
                if pid == proxy.guest_task.pid and sid == shmid:
                    guest_shm.shmdt(proxy.guest_task, guest_addr)
                    break
        return result

    def _split_fork(self, task, flags=0):
        # Host fork; the on_fork hook mirrors the child into the CVM.
        return self.host_kernel.execute_native(task, "fork", (flags,), {})

    def _split_clone(self, task, flags=0):
        return self._split_fork(task, flags)

    def _split_execve(self, task, path, argv=()):
        """Exec: host copy for system binaries, exec-cache for user code."""
        if self.policy.is_code_path(task, path) or path.startswith("/system"):
            return self.host_kernel.execute_native(
                task, "execve", (path, argv), {}
            )
        # User-generated code lives in the CVM: copy out, stage, exec.
        try:
            data = self._lane(task).cvm.read_out_file(self._abs(task, path))
        except SyscallError as exc:
            raise SyscallError(exc.errno, f"exec source {path}",
                               call="execve") from exc
        cache_path = self.exec_cache.stage(path, data)
        return self.host_kernel.execute_native(
            task, "execve", (cache_path, argv), {}
        )

    @staticmethod
    def _abs(task, path):
        import posixpath

        if not path.startswith("/"):
            path = posixpath.join(task.cwd, path)
        return posixpath.normpath(path)

    # ------------------------------------------------------------------
    # host-controlled firewalling of the container
    # ------------------------------------------------------------------

    def set_firewall(self, allow=None, rule=None):
        """Install host-side firewall rules on the CVM's network stack.

        Either pass ``allow`` — an iterable of permitted remote addresses
        (everything else refused) — or ``rule``, a callable
        ``address -> bool``.  Passing neither clears the firewall.
        """
        if rule is not None:
            self._firewall_rule = rule
        elif allow is not None:
            allowed = set(allow)
            self._firewall_rule = lambda address: address in allowed
        else:
            self._firewall_rule = None
        for lane in self.pool.lanes:
            lane.cvm.kernel.network.firewall = self._firewall_rule

    # ------------------------------------------------------------------
    # container reboot (recovery from a crashed CVM)
    # ------------------------------------------------------------------

    def reboot_cvm(self, lane=None):
        """Restart one dead (or live) container and re-enroll survivors.

        Reboots are lane-scoped: only the apps resident on ``lane``
        (default: lane 0) lose their container; siblings keep running
        untouched.  App data survives on the virtual disk; open CVM
        descriptors do not — their host-side stubs are dropped
        (subsequent use gets EBADF, like any fd whose backing object
        died) and every surviving app on the lane gets a fresh proxy in
        the new container.  All lane-held transport state re-arms
        through :meth:`_bind_lane` — the same choke point boot uses —
        so nothing stale can survive the swap.
        """
        if lane is None:
            lane = self.pool.default_lane
        lane.cvm.reboot()
        self._bind_lane(lane)
        survivors = [
            task for task in self.host_kernel.pids.all_tasks()
            if task.redirection_entry and task.is_alive()
            and self.pool.lane_for(task) is lane
        ]
        for task in survivors:
            stale = self.fd_tables.pop(task.pid, None)
            task.proxy = None
            lane.proxies.create_proxy(task)
            self.fd_tables[task.pid] = FdTranslationTable()
            if stale is None:
                continue
            for host_fd in stale.remote_fds():
                task.fd_table.pop(host_fd, None)
        maybe_event(self.machine.clock, "recovery", "channels-rebound",
                    kernel=self.host_kernel.label,
                    survivors=len(survivors), **self._lane_tags(lane))
        return len(survivors)

    # ------------------------------------------------------------------
    # app rebalancing (move an idle app between lanes)
    # ------------------------------------------------------------------

    def rebalance(self, task, target):
        """Move an idle enrolled app from its lane to ``target``.

        ``target`` is a :class:`~repro.core.pool.CVMLane` or a cvm id.
        The protocol pins differential equivalence: the app's staged
        async windows drain and its source lane settles first (so no
        in-flight state can be lost), its private ``/data/data`` tree
        is replicated into the target container, its proxy is rebuilt
        there, and every remote fd is re-opened by path with the
        original flags (minus O_CREAT|O_TRUNC, so contents survive) and
        its file offset restored — the app observes the same bytes from
        the same descriptors afterwards.  Deferred-errno ledger entries
        travel with the app, so a fence still surfaces them.

        Returns ``True`` on a committed move.  Apps holding non-file
        CVM resources (sockets, pipes) are skipped (``False``) — those
        cannot be transparently re-opened — as is a same-lane no-op.
        The ``pool.rebalance-loss`` fault site aborts the protocol
        before the commit point: the app simply stays put.
        """
        if not isinstance(target, CVMLane):
            target = self.pool.lane_by_id(int(target))
        source = self._lane(task)
        if target is source:
            return False
        table = self._fd_table(task)
        source_proxy = source.proxies.proxy_for(task)
        descs = {}
        for host_fd in sorted(table.remote_fds()):
            desc = source_proxy.guest_task.fd_table.get(
                table.to_proxy(host_fd)
            )
            inode = getattr(desc, "inode", None)
            if inode is None or inode.kind is not InodeKind.FILE:
                self.recovery_log.append(
                    ("rebalance-skip",
                     f"pid {task.pid} holds non-file CVM fd {host_fd}")
                )
                return False
            descs[host_fd] = desc
        # Quiesce: the app's staged windows drain on the source and the
        # source lane settles, so nothing in-flight can be lost mid-move.
        if source.write_behind is not None:
            self._wb_drain(task, reason="rebalance")
        if source.binder_ring is not None:
            self._binder_drain(task, reason="rebalance")
        self.machine.clock.wait_for(source.cvm.lane, "anception:rebalance")
        engine = self.machine.clock.faults
        if engine is not None and engine.pool_rebalance_loss(call=task.name):
            self.recovery_log.append(
                ("rebalance-abort",
                 f"pid {task.pid} {source.name}->{target.name}")
            )
            maybe_event(self.machine.clock, "recovery", "rebalance-abort",
                        task=task, kernel=self.host_kernel.label,
                        source=source.name, target=target.name)
            return False
        self._copy_app_tree(source, target, task)
        source.proxies.remove_proxy(task)
        target.proxies.create_proxy(task)
        proxy = target.proxies.proxy_for(task)
        from repro.kernel.vfs import O_CREAT, O_TRUNC

        new_table = FdTranslationTable()
        for host_fd in sorted(descs):
            desc = descs[host_fd]
            open_file = target.cvm.kernel.vfs.open(
                desc.path, desc.flags & ~(O_CREAT | O_TRUNC),
                proxy.guest_task.credentials,
            )
            open_file.offset = desc.offset
            proxy_fd = proxy.guest_task.alloc_fd(open_file)
            stub = task.fd_table.get(host_fd)
            if isinstance(stub, RemoteFdStub):
                stub.proxy_fd = proxy_fd
            new_table.bind(host_fd, proxy_fd)
        self.fd_tables[task.pid] = new_table
        self._move_ledgers(source, target, task.pid)
        if source.page_cache is not None:
            # The source container no longer owns these files; drop the
            # learned bindings and any cached pages under the app tree.
            prefix = task.cwd.rstrip("/") + "/"
            stale = sorted(
                path for path in source.cache_paths
                if path == task.cwd or path.startswith(prefix)
            )
            for path in stale:
                source.page_cache.invalidate_ino(
                    source.cache_paths.pop(path)
                )
        self.pool.move(task.pid, target)
        self.recovery_log.append(
            ("rebalance", f"pid {task.pid} {source.name}->{target.name}")
        )
        maybe_event(self.machine.clock, "recovery", "rebalance", task=task,
                    kernel=self.host_kernel.label, source=source.name,
                    target=target.name, fds=len(descs))
        return True

    def _copy_app_tree(self, source, target, task):
        """Replicate the app's private data tree across containers.

        Host-mediated trusted copy, like the enrollment-time install
        copy: the host reads the source container's inodes directly and
        writes them into the target — no channel traffic, no doorbells.
        """
        target.cvm.ensure_private_dir(task)
        root = task.cwd
        if not source.cvm.kernel.vfs.exists(root, self._root):
            return 0
        uid = task.credentials.uid
        copied = 0

        def _copy_dir(directory):
            nonlocal copied
            for name in sorted(
                    source.cvm.kernel.vfs.listdir(directory, self._root)):
                path = f"{directory}/{name}"
                inode = source.cvm.kernel.vfs.resolve(
                    path, self._root, follow_symlinks=False
                )
                if inode.kind is InodeKind.DIRECTORY:
                    if not target.cvm.kernel.vfs.exists(path, self._root):
                        target.cvm.kernel.vfs.mkdir(
                            path, self._root, mode=0o700
                        )
                        target.cvm.kernel.vfs.chown(
                            path, uid, uid, self._root
                        )
                    _copy_dir(path)
                elif inode.kind is InodeKind.FILE and inode.data is not None:
                    target.cvm.copy_in_file(path, bytes(inode.data), uid)
                    copied += 1

        _copy_dir(root)
        return copied

    @staticmethod
    def _move_ledgers(source, target, pid):
        """Carry one pid's deferred-errno ledger entries to its new lane."""
        for src, dst in ((source.write_behind, target.write_behind),
                         (source.binder_ring, target.binder_ring)):
            if src is None or dst is None:
                continue
            for key in sorted(k for k in src.errors if k[0] == pid):
                dst.errors.setdefault(key, src.errors.pop(key))

    # ------------------------------------------------------------------
    # warm migration (slice-based move, pending windows intact)
    # ------------------------------------------------------------------

    def migrate(self, task, target):
        """Warm-move an enrolled app to ``target`` with its state intact.

        Where :meth:`rebalance` quiesces first (the app's staged async
        windows drain, then only fds + tree + ledgers move), ``migrate``
        is the per-app cut of the world serializer:
        :func:`~repro.core.snapshot.app_slice` captures the app's whole
        lane-held delegation bundle — open remote fds with offsets, the
        private data tree, *still-pending* write-behind window entries,
        both deferred-errno ledgers, cached pages in LRU recency order —
        and :func:`~repro.core.snapshot.apply_app_slice` re-materializes
        it on the target.  The move is invisible to the app: staged
        windows still drain at its next fence, warm reads stay warm.

        Pending binder transactions do drain first — their window
        entries hold live Transaction objects bound to source-container
        services and cannot be re-targeted.  Returns ``True`` on a
        committed move; same-lane moves are a no-op ``False`` and apps
        whose lane state cannot be sliced (non-file CVM fds, live SysV
        shm attachments) are skipped with a ``("migrate-skip", …)``
        recovery-log entry.
        """
        from repro.core.snapshot import (
            AppSliceError, app_slice, apply_app_slice,
        )

        if not isinstance(target, CVMLane):
            target = self.pool.lane_by_id(int(target))
        source = self._lane(task)
        if target is source:
            return False
        if source.binder_ring is not None:
            self._binder_drain(task, reason="migrate")
        self.machine.clock.wait_for(source.cvm.lane, "anception:migrate")
        try:
            slice_ = app_slice(self, task)
        except AppSliceError as exc:
            self.recovery_log.append(("migrate-skip", str(exc)))
            maybe_event(self.machine.clock, "recovery", "migrate-skip",
                        task=task, kernel=self.host_kernel.label,
                        source=source.name, target=target.name)
            return False
        # Source teardown: the slice carries everything the app needs,
        # so the source lane forgets the pid entirely — its window, its
        # ledger entries, its proxy, its cached pages.
        pid = task.pid
        if source.write_behind is not None:
            source.write_behind.windows.pop(pid, None)
            for key in sorted(k for k in source.write_behind.errors
                              if k[0] == pid):
                del source.write_behind.errors[key]
        if source.binder_ring is not None:
            for key in sorted(k for k in source.binder_ring.errors
                              if k[0] == pid):
                del source.binder_ring.errors[key]
        source.proxies.remove_proxy(task)
        if source.page_cache is not None:
            prefix = task.cwd.rstrip("/") + "/"
            stale = sorted(
                path for path in source.cache_paths
                if path == task.cwd or path.startswith(prefix)
            )
            for path in stale:
                source.page_cache.invalidate_ino(
                    source.cache_paths.pop(path)
                )
        apply_app_slice(self, task, slice_, target)
        self.pool.record_migration(pid, target)
        self.recovery_log.append(
            ("migrate", f"pid {pid} {source.name}->{target.name}")
        )
        maybe_event(self.machine.clock, "recovery", "migrate", task=task,
                    kernel=self.host_kernel.label, source=source.name,
                    target=target.name, fds=len(slice_["fds"]),
                    wb=len(slice_["wb_entries"]),
                    pages=sum(len(c["pages"]) for c in slice_["cache"]))
        return True

    # ------------------------------------------------------------------
    # explicit batch windows (opt-in syscall batching)
    # ------------------------------------------------------------------

    def batch(self, task):
        """Open an explicit batch window for ``task``.

        Inside ``with layer.batch(task):`` deferrable calls (``write``,
        ``pwrite64``) queue instead of forwarding; consecutive writes to
        the same fd coalesce into one descriptor; the window's exit
        flushes everything behind a single doorbell pair.  Deferred
        writes complete *optimistically* (the byte count returns
        immediately); a failure surfaces at flush as the usual typed
        errno.  The crypto filesystem disables deferral — its transform
        needs the live proxy-side file offset per call.
        """
        return DelegationBatch(self, task)

    def run_batch(self, task, calls):
        """Run ``calls`` — ``(name, *args)`` tuples — under one window.

        The kernel-facing entry for the opt-in batched dispatch path
        (``libc.syscall_batch``): every call goes through the normal
        alternate-table dispatch, so host/block/split decisions apply
        unchanged; only redirected deferrable calls actually batch.
        """
        results = []
        with self.batch(task):
            for call in calls:
                name, rest = call[0], tuple(call[1:])
                results.append(self.host_kernel.syscall(task, name, *rest))
        return results

    def _run_batch(self, task, calls):
        """Forward a flushed batch window behind one doorbell pair."""
        if not calls:
            return
        lane = self._lane(task)
        attempt = 0
        while True:
            self._ensure_container(lane, "batch")
            try:
                with maybe_span(self.machine.clock, "proxy",
                                f"forward:batch:{len(calls)}", task=task,
                                kernel=self.host_kernel.label,
                                decision="redirect", batch=len(calls)):
                    pendings = [
                        self.submit(task, name, args, {}, lane=lane)
                        for name, args in calls
                    ]
                    self.flush(task, reason="batch", lane=lane)
                    for pending in pendings:
                        self.complete(pending, lane=lane)
                return
            except DelegationError as failure:
                attempt += 1
                if not self.recovery.enabled \
                        or attempt > self.recovery.max_retries:
                    raise SyscallError(
                        errno.EIO, f"delegation failed: {failure}",
                        call="batch",
                    ) from failure
                self._recover_from(task, failure, attempt, "batch")

    # ------------------------------------------------------------------
    # write-behind delegation (async windows, drains, fences)
    # ------------------------------------------------------------------

    _WB_DEFERRABLE = ("write", "pwrite64", "ftruncate")
    _WB_FENCE_SURFACING = ("fsync", "fdatasync", "read", "pread64", "readv",
                           "fence")

    def _wb_accepts(self, task, name, args, kwargs, lane=None):
        """Whether this call may defer into a write-behind window.

        Only side-effect-only calls whose results are known up front
        (byte counts / zero) on pre-validated writable regular CVM
        files qualify — so in an unfaulted run a deferred call cannot
        fail, and async results stay byte-identical to sync.
        """
        if kwargs or name not in self._WB_DEFERRABLE:
            return False
        if self.crypto_fs is not None or self._batch is not None:
            return False
        if lane is None:
            lane = self._lane(task)
        if lane.cvm.crashed or lane.cvm.compromised:
            return False
        if not args or not isinstance(args[0], int):
            return False
        desc = self._remote_file(task, args[0], lane=lane)
        if desc is None or not getattr(desc, "writable", False):
            return False
        if name == "write":
            return (len(args) == 2
                    and isinstance(args[1], (bytes, bytearray, memoryview)))
        if name == "pwrite64":
            return (len(args) == 3
                    and isinstance(args[1], (bytes, bytearray, memoryview))
                    and isinstance(args[2], int) and args[2] >= 0)
        # ftruncate: a negative length must take the sync path so the
        # kernel's own EINVAL surfaces at the call site.
        return (len(args) == 2 and isinstance(args[1], int)
                and args[1] >= 0)

    def _wb_accepts_writev(self, task, fd, vec, lane=None):
        """writev defers iff a plain write to the same fd would."""
        if self.crypto_fs is not None or self._batch is not None:
            return False
        if lane is None:
            lane = self._lane(task)
        if lane.cvm.crashed or lane.cvm.compromised:
            return False
        desc = self._remote_file(task, fd, lane=lane)
        if desc is None or not getattr(desc, "writable", False):
            return False
        return all(isinstance(entry, (bytes, bytearray, memoryview))
                   for entry in vec)

    def _wb_enqueue(self, task, name, args, lane=None):
        """Stage one deferred call; return its optimistic result.

        The host pays only the fixed marshal plus a page-rate staging
        copy, then keeps running — posting, channel bytes, doorbells,
        and CVM execution all land on the owning CVM's clock lane at
        drain time.
        """
        if lane is None:
            lane = self._lane(task)
        wb = lane.write_behind
        window = wb.window(task)
        if len(window.entries) >= wb.depth:
            # Bounded depth: a full window is the only point deferral
            # blocks (drain waits for the lane before re-posting).
            self._wb_drain(task, reason="window-full", lane=lane)
        if name == "write":
            payload = bytes(args[1])
            args = (args[0], payload)
            result = len(payload)
        elif name == "pwrite64":
            payload = bytes(args[1])
            args = (args[0], payload, args[2])
            result = len(payload)
        else:
            args = (args[0], args[1])
            result = 0
        table = self._fd_table(task)
        call_args = table.translate_args(name, args)
        _call, size = marshal_call(name, call_args, {})
        costs = self.machine.costs
        clock = self.machine.clock
        clock.advance(costs.marshal_fixed_ns, "anception:marshal")
        clock.advance(
            costs.wb_stage_page_ns * max(costs.chunks(size), 1),
            "anception:wb-stage",
        )
        window.entries.append(
            WriteBehindEntry(name, args, call_args, size, args[0], result)
        )
        wb.enqueued += 1
        wb.max_depth_seen = max(wb.max_depth_seen, len(window.entries))
        maybe_event(clock, "wb-submit", name, task=task,
                    kernel=self.host_kernel.label,
                    depth=len(window.entries), bytes=size)
        return result

    def _wb_drain(self, task, reason, lane=None):
        """Ship one task's staged window through the ring on its lane."""
        if lane is None:
            lane = self._lane(task)
        wb = lane.write_behind
        window = wb.windows.get(task.pid)
        if window is None or not window.entries:
            return
        entries, window.entries = window.entries, []
        wb.drains += 1
        clock = self.machine.clock
        # The previous drain must retire before this one posts — the
        # bounded in-flight depth is the backpressure contract.
        clock.wait_for(lane.cvm.lane, "anception:wb-backpressure")
        bus = clock.bus
        if _prof._ACTIVE is None and (bus is None or not bus._depth):
            with clock.overlap(lane.cvm.lane):
                self._run_window(lane, task, entries)
            return
        with wall_zone("wb.drain"), \
                maybe_span(clock, "wb-drain", f"{reason}:{len(entries)}",
                           task=task, kernel=self.host_kernel.label,
                           batch=len(entries), reason=reason,
                           **self._lane_tags(lane)) as span:
            with clock.overlap(lane.cvm.lane):
                self._run_window(lane, task, entries)
            # The backpressure fence above settled the lane, so the
            # post-window backlog is exactly the lane time this drain
            # consumed — the overlap-ratio numerator for the analyzer.
            span.set(lane_ns=clock.lane_backlog_ns(lane.cvm.lane))

    def _wb_settle(self, lane, task, name):
        """Drain one lane's staged windows and settle its clock lane."""
        wb = lane.write_behind
        drained = 0
        for window in wb.pending_windows():
            drained += len(window.entries)
            self._wb_drain(window.task, reason=f"fence:{name}", lane=lane)
        waited = self.machine.clock.wait_for(
            lane.cvm.lane, f"anception:wb-fence:{name}"
        )
        if drained or waited:
            wb.fences += 1
            maybe_event(self.machine.clock, "wb-fence", name, task=task,
                        kernel=self.host_kernel.label, drained=drained,
                        waited_ns=waited, **self._lane_tags(lane))

    def _wb_fence(self, task, name, args=(), lane=None):
        """Drain the owning lane, settle it, surface deferred errnos.

        Fences are lane-scoped: only the fencing task's own CVM drains
        and settles — sibling lanes' windows keep riding their own
        clocks (the cross-lane barrier is :meth:`async_fence`).
        fsync/fdatasync/read-after-write (and the explicit ``fence``
        veneer) additionally pop the ledger entry for their fd — the
        pop is what makes a deferred errno surface *exactly once*;
        ``close`` surfaces in :meth:`_split_close` after teardown.
        """
        if lane is None:
            lane = self._lane(task)
        self._wb_settle(lane, task, name)
        if name in self._WB_FENCE_SURFACING and args \
                and isinstance(args[0], int):
            deferred = lane.write_behind.take_error(task.pid, args[0])
            if deferred is not None:
                raise SyscallError(
                    deferred.errno,
                    f"deferred write-behind error on fd {args[0]}",
                    call=name,
                ) from deferred

    def wb_fence(self, task, fd=None):
        """Explicit write-behind barrier (the libc ``fence`` veneer).

        Drains every staged window, waits out the CVM lane, and — when
        ``fd`` names a descriptor with a ledgered deferred error —
        surfaces that errno exactly once.  No-op when write-behind is
        off, so the same op-script runs in every mode.
        """
        if self._lane(task).write_behind is None:
            return 0
        self._wb_fence(task, "fence", (fd,) if fd is not None else ())
        return 0

    def _run_window(self, lane, task, entries):
        """Forward one drained window behind one doorbell pair.

        Runs inside the lane's overlap window.  Failures never raise to
        the (long-gone) call site: they ledger per fd — first error
        wins, later entries in the same window get ECANCELED — for the
        next fence to surface.
        """
        engine = self.machine.clock.faults
        attempt = 0
        while True:
            self._ensure_container(lane, "write-behind")
            try:
                pendings = []
                failed = None
                with lane.channel.bulk_copy():
                    for entry in entries:
                        if failed is None and engine is not None:
                            injected = engine.wb_defer_errno(call=entry.name)
                            if injected:
                                failed = SyscallError(
                                    injected, "injected fault: wb.error",
                                    call=entry.name,
                                )
                                self._wb_record(task, entry.fd, failed)
                                continue
                        if failed is not None:
                            self._wb_record(task, entry.fd, SyscallError(
                                errno.ECANCELED,
                                "aborted by earlier failure in window",
                                call=entry.name,
                            ))
                            continue
                        pendings.append(self.submit(
                            task, entry.name, entry.args, {},
                            translated=entry.call_args, wire=entry.wire,
                            lane=lane,
                        ))
                    if not pendings:
                        return
                    self.flush(task, reason=f"write-behind:{len(pendings)}",
                               lane=lane)
                if engine is not None and engine.wb_reap_loss():
                    self._wb_reap_lost(task, pendings)
                    return
                for pending in pendings:
                    try:
                        self.complete(pending, lane=lane)
                    except SyscallError as exc:
                        self._wb_record(task, pending.args[0], exc)
                return
            except DelegationError as failure:
                attempt += 1
                if not self.recovery.enabled \
                        or attempt > self.recovery.max_retries:
                    for index, entry in enumerate(entries):
                        if index == 0:
                            exc = SyscallError(
                                errno.EIO,
                                f"delegation failed: {failure}",
                                call=entry.name,
                            )
                        else:
                            exc = SyscallError(
                                errno.ECANCELED,
                                "aborted by earlier failure in window",
                                call=entry.name,
                            )
                        self._wb_record(task, entry.fd, exc)
                    return
                self._recover_from(task, failure, attempt, "write-behind")

    def _wb_reap_lost(self, task, pendings):
        """The ``wb.reap-loss`` site struck: the reaper missed a batch.

        With recovery on, the completions already sit in the shared
        pages, so the reaper times out and polls them back — it never
        re-submits (a replayed write is not idempotent).  With recovery
        off the results are simply gone: ledger EIO for the first
        descriptor, ECANCELED for the rest.
        """
        clock = self.machine.clock
        if self.recovery.enabled:
            clock.advance(
                self.recovery.signal_timeout_ns, "anception:wb-reap-poll"
            )
            self.recovery_log.append(
                ("wb-reap-poll", f"{len(pendings)} completions")
            )
            maybe_event(clock, "recovery", "wb-reap-poll", task=task,
                        kernel=self.host_kernel.label, batch=len(pendings))
            for pending in pendings:
                try:
                    self.complete(pending)
                except SyscallError as exc:
                    self._wb_record(task, pending.args[0], exc)
            return
        for index, pending in enumerate(pendings):
            if index == 0:
                exc = SyscallError(
                    errno.EIO, "write-behind completions lost",
                    call=pending.name,
                )
            else:
                exc = SyscallError(
                    errno.ECANCELED,
                    "aborted by earlier failure in window",
                    call=pending.name,
                )
            self._wb_record(task, pending.args[0], exc)

    def _wb_record(self, task, fd, exc):
        """Ledger one deferred failure (first per (pid, fd) wins)."""
        if self._lane(task).write_behind.record_error(task.pid, fd, exc):
            maybe_event(self.machine.clock, "wb-error",
                        getattr(exc, "call", None) or "write-behind",
                        task=task, kernel=self.host_kernel.label, fd=fd,
                        errno=exc.errno)

    # ------------------------------------------------------------------
    # batched binder delegation (oneway windows, drains, fences)
    # ------------------------------------------------------------------

    def _binder_accepts(self, task, transaction):
        """Whether this transaction may defer into a binder window.

        Only oneway transactions to services that already exist in the
        CVM qualify — the name lookup happens at enqueue time, so a
        missing target raises ENOENT at the call site in every mode and
        an unfaulted deferred delivery cannot fail (the driver swallows
        service-side errors for oneway in every mode too).
        """
        if not transaction.is_oneway:
            return False
        if self._batch is not None:
            return False
        lane = self._lane(task)
        if lane.cvm.crashed or lane.cvm.compromised:
            return False
        return lane.cvm.android.has_service(transaction.target)

    def _binder_enqueue(self, task, request, transaction):
        """Stage one oneway transaction; return ``None`` optimistically.

        The parcel is serialized now (snapshot semantics: a later
        payload mutation must not reach the service), the host pays the
        fixed marshal plus a page-rate staging copy, and keeps running —
        the cross-VM fixed cost, channel bytes, doorbells, and CVM
        execution all land on the ``cvm`` lane at drain time, shared
        across the whole window.
        """
        from repro.android.binder import Transaction

        lane = self._lane(task)
        ring = lane.binder_ring
        window = ring.window(task)
        if len(window.entries) >= ring.depth:
            self._binder_drain(task, reason="window-full")
        payload = transaction.payload
        if isinstance(payload, dict):
            payload = dict(payload)
        staged = Transaction(transaction.target, transaction.method,
                             payload, transaction.flags)
        proxy = lane.proxies.proxy_for(task)
        proxy_binder_fd = self._ensure_proxy_binder(lane, proxy)
        call_args = (proxy_binder_fd, request, staged)
        _call, size = marshal_call("ioctl", call_args, {})
        costs = self.machine.costs
        clock = self.machine.clock
        clock.advance(costs.marshal_fixed_ns, "anception:marshal")
        clock.advance(
            costs.wb_stage_page_ns * max(costs.chunks(size), 1),
            "anception:binder-stage",
        )
        window.entries.append(BinderRingEntry(staged, call_args, size))
        ring.enqueued += 1
        ring.max_depth_seen = max(ring.max_depth_seen, len(window.entries))
        maybe_event(clock, "binder-submit",
                    f"{staged.target}.{staged.method}", task=task,
                    kernel=self.host_kernel.label,
                    depth=len(window.entries), bytes=size)
        return None

    def _binder_drain(self, task, reason):
        """Ship one task's staged window through the ring on its lane."""
        lane = self._lane(task)
        ring = lane.binder_ring
        window = ring.windows.get(task.pid)
        if window is None or not window.entries:
            return
        entries, window.entries = window.entries, []
        ring.drains += 1
        clock = self.machine.clock
        # The previous drain must retire before this one posts — the
        # bounded in-flight depth is the backpressure contract.
        clock.wait_for(lane.cvm.lane, "anception:binder-backpressure")
        with wall_zone("binder.drain"), \
                maybe_span(clock, "binder-drain",
                           f"{reason}:{len(entries)}", task=task,
                           kernel=self.host_kernel.label,
                           batch=len(entries), reason=reason,
                           **self._lane_tags(lane)) as span:
            with clock.overlap(lane.cvm.lane):
                self._run_binder_window(lane, task, entries)
            span.set(lane_ns=clock.lane_backlog_ns(lane.cvm.lane))

    def _binder_settle_lane(self, lane, task, name):
        """Drain one lane's staged binder windows and settle its clock."""
        ring = lane.binder_ring
        drained = 0
        for window in ring.pending_windows():
            drained += len(window.entries)
            self._binder_drain(window.task, reason=f"fence:{name}")
        waited = self.machine.clock.wait_for(
            lane.cvm.lane, f"anception:binder-fence:{name}"
        )
        if drained or waited:
            ring.fences += 1
            maybe_event(self.machine.clock, "binder-fence", name,
                        task=task, kernel=self.host_kernel.label,
                        drained=drained, waited_ns=waited,
                        **self._lane_tags(lane))

    def _binder_settle(self, task, name):
        """Drain the task's own lane's binder windows and settle it."""
        self._binder_settle_lane(self._lane(task), task, name)

    def _binder_fence(self, task, target, name):
        """Fence-on-reply: settle the lane, surface this target's errno.

        Every staged oneway (to any target, preserving submission order
        across services) delivers before the fencing transaction runs;
        the ledger pop makes a deferred delivery error surface *exactly
        once*, at the next reply-carrying call to that target.
        """
        self._binder_settle(task, name)
        deferred = self._lane(task).binder_ring.take_error(task.pid, target)
        if deferred is not None:
            raise SyscallError(
                deferred.errno,
                f"deferred binder delivery error for {target!r}",
                call="ioctl",
            ) from deferred

    def async_fence(self, task, fd=None):
        """Explicit async-delegation barrier (the libc ``fence`` veneer).

        The one *cross-lane* fence: every lane's staged write-behind
        *and* binder windows drain — in lane order, each settling its
        own clock cursor — and a ledgered deferred errno surfaces
        exactly once, always from the fencing task's own lane: by
        ``fd`` for write-behind, earliest-target-first for binder (the
        barrier names no target).  No-op when both async features are
        off, so the same program runs in every mode.
        """
        own = self._lane(task)
        for lane in self.pool.lanes:
            if lane.write_behind is not None:
                self._wb_settle(lane, task, "fence")
            if lane.binder_ring is not None:
                self._binder_settle_lane(lane, task, "fence")
        if own.write_behind is not None and fd is not None:
            deferred = own.write_behind.take_error(task.pid, fd)
            if deferred is not None:
                raise SyscallError(
                    deferred.errno,
                    f"deferred write-behind error on fd {fd}",
                    call="fence",
                ) from deferred
        if own.binder_ring is not None:
            deferred = own.binder_ring.take_any_error(task.pid)
            if deferred is not None:
                raise SyscallError(
                    deferred.errno,
                    "deferred binder delivery error",
                    call="fence",
                ) from deferred
        return 0

    def _run_binder_window(self, lane, task, entries):
        """Forward one drained binder window behind one doorbell pair.

        Runs inside the lane's overlap window.  The fixed cross-VM
        binder cost is paid once for the whole window — that is the
        batching win — while per-entry parcel bytes still cross the
        channel (above a page at the bulk-parcel page rate).  Failures
        never raise to the (long-gone) call site: they ledger per
        ``(pid, target)`` for the next fence to surface.
        """
        engine = self.machine.clock.faults
        ring = lane.binder_ring
        costs = self.machine.costs
        clock = self.machine.clock
        attempt = 0
        while True:
            self._ensure_container(lane, "binder-ring")
            try:
                live = list(entries)
                if engine is not None and len(live) > 1 \
                        and engine.binder_reorder(call="ioctl"):
                    live[0], live[1] = live[1], live[0]
                    ring.reordered += 1
                pendings = []
                with lane.channel.bulk_copy():
                    clock.advance(
                        costs.binder_cvm_fixed_ns, "anception:binder-window"
                    )
                    for entry in live:
                        if engine is not None:
                            injected = engine.binder_drop(call="ioctl")
                            if injected:
                                ring.dropped += 1
                                self._binder_record(
                                    task, entry.target, SyscallError(
                                        injected,
                                        "injected fault: binder.drop",
                                        call="ioctl",
                                    ))
                                continue
                        if entry.payload_bytes > PAGE_SIZE:
                            ring.bulk_parcels += 1
                            clock.advance(
                                costs.binder_parcel_page_ns
                                * costs.chunks(entry.payload_bytes),
                                "anception:binder-parcel",
                            )
                        else:
                            clock.advance(
                                int(costs.binder_cvm_per_byte_ns
                                    * entry.payload_bytes),
                                "anception:binder-bytes",
                            )
                        pendings.append((entry, self.submit(
                            task, "ioctl", entry.call_args, {},
                            translated=entry.call_args, wire=entry.wire,
                            ring_flags=RING_FLAG_BINDER, lane=lane,
                        )))
                    if not pendings:
                        return
                    self.flush(task, reason=f"binder:{len(pendings)}",
                               lane=lane)
                if engine is not None and engine.binder_reply_loss(
                        call="ioctl"):
                    self._binder_reap_lost(task, pendings)
                    return
                for entry, pending in pendings:
                    try:
                        self.complete(pending, lane=lane)
                    except SyscallError as exc:
                        self._binder_record(task, entry.target, exc)
                return
            except DelegationError as failure:
                attempt += 1
                if not self.recovery.enabled \
                        or attempt > self.recovery.max_retries:
                    for index, entry in enumerate(entries):
                        if index == 0:
                            exc = SyscallError(
                                errno.EIO,
                                f"delegation failed: {failure}",
                                call="ioctl",
                            )
                        else:
                            exc = SyscallError(
                                errno.ECANCELED,
                                "aborted by earlier failure in window",
                                call="ioctl",
                            )
                        self._binder_record(task, entry.target, exc)
                    return
                self._recover_from(task, failure, attempt, "binder-ring")

    def _binder_reap_lost(self, task, pendings):
        """The ``binder.reply-loss`` site struck: completions missed.

        With recovery on, the completion descriptors already sit in the
        shared pages — the reaper times out and polls them back (never
        re-submits; a replayed transaction is not idempotent).  With
        recovery off the outcomes are gone: ledger EIO for the first
        descriptor, ECANCELED for the rest, per target.
        """
        clock = self.machine.clock
        if self.recovery.enabled:
            clock.advance(
                self.recovery.signal_timeout_ns, "anception:binder-reap-poll"
            )
            self.recovery_log.append(
                ("binder-reap-poll", f"{len(pendings)} completions")
            )
            maybe_event(clock, "recovery", "binder-reap-poll", task=task,
                        kernel=self.host_kernel.label, batch=len(pendings))
            for entry, pending in pendings:
                try:
                    self.complete(pending)
                except SyscallError as exc:
                    self._binder_record(task, entry.target, exc)
            return
        for index, (entry, _pending) in enumerate(pendings):
            if index == 0:
                exc = SyscallError(
                    errno.EIO, "binder completions lost", call="ioctl",
                )
            else:
                exc = SyscallError(
                    errno.ECANCELED,
                    "aborted by earlier failure in window",
                    call="ioctl",
                )
            self._binder_record(task, entry.target, exc)

    def _binder_record(self, task, target, exc):
        """Ledger one deferred failure (first per (pid, target) wins)."""
        if self._lane(task).binder_ring.record_error(task.pid, target, exc):
            maybe_event(self.machine.clock, "binder-error", target,
                        task=task, kernel=self.host_kernel.label,
                        target=target, errno=exc.errno)

    # ------------------------------------------------------------------
    # kernel hooks
    # ------------------------------------------------------------------

    def on_fork(self, parent, child):
        """Extend the sandbox to forked children (GingerBreak step: the
        restarted logcat stays bound to the app's container)."""
        if not parent.redirection_entry:
            return
        child.redirection_entry = parent.redirection_entry
        child.launch_uid = parent.launch_uid
        # Children join the parent's lane: the shared fd/proxy state
        # they inherit lives in that container.
        lane = self._lane(parent)
        self.pool.adopt(child, lane)
        lane.proxies.create_proxy(child)
        child_table = FdTranslationTable()
        self.fd_tables[child.pid] = child_table
        parent_table = self.fd_tables.get(parent.pid)
        if parent_table is None:
            return
        parent_proxy = lane.proxies.proxy_for(parent)
        child_proxy = lane.proxies.proxy_for(child)
        for host_fd in parent_table.remote_fds():
            proxy_fd = parent_table.to_proxy(host_fd)
            desc = parent_proxy.guest_task.fd_table.get(proxy_fd)
            if desc is None:
                continue
            dup = desc.dup() if hasattr(desc, "dup") else desc
            child_proxy.guest_task.install_fd(proxy_fd, dup)
            child_table.bind(host_fd, proxy_fd)

    def on_credentials_changed(self, task):
        """Kill any app whose UID changed after launch (footnote 3)."""
        if task.launch_uid is None or not task.redirection_entry:
            return
        if task.credentials.uid != task.launch_uid:
            self.killed_apps.append(task.pid)
            self.host_kernel.reap_task(task, exit_code=-9)
            raise ProcessKilled(
                task.pid,
                f"UID changed after launch ({task.launch_uid} -> "
                f"{task.credentials.uid})",
            )

    # ------------------------------------------------------------------
    # program helper
    # ------------------------------------------------------------------

    def spawn_program(self, task, path, argv=()):
        """fork + execve + run: how enrolled apps launch helpers."""
        child_pid = self.host_kernel.syscall(task, "fork")
        child = self.host_kernel.pids.require(child_pid)
        image = self.host_kernel.syscall(child, "execve", path, argv)
        result = run_payload(self.host_kernel, child, image)
        return child, result

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    _AGG_FIRST_KEYS = ("depth", "max_pages")
    _AGG_MAX_KEYS = ("max_depth_seen",)

    @classmethod
    def _agg(cls, dicts):
        """Merge per-lane stats dicts into one fleet-wide view.

        A single dict passes through unchanged (the ``cvms=1``
        byte-identity pin).  Across lanes: numeric counters sum, bools
        OR, configured bounds take the first lane's value, high-water
        marks take the max, nested dicts merge recursively, and the
        cache hit rate is recomputed from the summed hits/misses.
        """
        if len(dicts) == 1:
            return dict(dicts[0])
        merged = {}
        for key in dicts[0]:
            values = [d[key] for d in dicts]
            first = values[0]
            if key in cls._AGG_FIRST_KEYS:
                merged[key] = first
            elif key in cls._AGG_MAX_KEYS:
                merged[key] = max(values)
            elif isinstance(first, dict):
                merged[key] = cls._agg(values)
            elif isinstance(first, bool):
                merged[key] = any(values)
            elif isinstance(first, (int, float)):
                merged[key] = sum(values)
            else:
                merged[key] = first
        if "hit_rate" in merged and "hits" in merged and "misses" in merged:
            looked = merged["hits"] + merged["misses"]
            merged["hit_rate"] = (
                round(merged["hits"] / looked, 4) if looked else 0.0
            )
        return merged

    def stats(self):
        """Layer-wide summary; counters aggregate across every lane.

        At ``cvms=1`` the shape (and every value) is byte-identical to
        the pre-pool layer.  With more lanes the top-level counters are
        fleet-wide sums and two extra keys appear: ``pool`` (placement
        and residency) and ``per_cvm`` (the per-lane breakdown).
        """
        decisions = {}
        for _pid, _name, decision in self.decision_log:
            decisions[decision.value] = decisions.get(decision.value, 0) + 1
        lanes = self.pool.lanes
        summary = {
            "decisions": decisions,
            "proxies": sum(lane.proxies.count for lane in lanes),
            "blocked_calls": len(self.blocked_calls),
            "killed_apps": len(self.killed_apps),
            "channel": self._agg([lane.channel.stats() for lane in lanes]),
            "read_cache": (
                self._agg([lane.page_cache.stats() for lane in lanes])
                if lanes[0].page_cache is not None else None
            ),
            "write_behind": (
                self._agg([lane.write_behind.stats() for lane in lanes])
                if lanes[0].write_behind is not None else None
            ),
            "binder_ring": (
                self._agg([lane.binder_ring.stats() for lane in lanes])
                if lanes[0].binder_ring is not None else None
            ),
            "cvm_crashed": any(lane.cvm.crashed for lane in lanes),
            "cvm_reboots": sum(lane.cvm.reboot_count for lane in lanes),
            "recoveries": len(self.recovery_log),
        }
        if len(lanes) > 1:
            summary["pool"] = self.pool.stats()
            summary["per_cvm"] = {
                lane.name: {
                    "residents": len(self.pool.pids_on(lane)),
                    "proxies": lane.proxies.count,
                    "crashed": lane.cvm.crashed,
                    "reboots": lane.cvm.reboot_count,
                    "channel": lane.channel.stats(),
                    "read_cache": (
                        lane.page_cache.stats()
                        if lane.page_cache is not None else None
                    ),
                    "write_behind": (
                        lane.write_behind.stats()
                        if lane.write_behind is not None else None
                    ),
                    "binder_ring": (
                        lane.binder_ring.stats()
                        if lane.binder_ring is not None else None
                    ),
                }
                for lane in lanes
            }
        return summary
