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
from repro.core.windows import (
    ANY_KEY, BINDER, WINDOW_DEPTH, WRITE_BEHIND, AsyncWindows,
)
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
from repro.obs.bus import maybe_event, maybe_span
from repro.perf.costs import PAGE_SIZE


ANCEPTION_LINES_OF_CODE = 5_219
ANCEPTION_MARSHALING_LINES = 2_438

_FD_RESULT_CALLS = ("open", "socket", "accept", "pipe")
"""Delegated calls whose CVM result is a new fd (``pipe``: a pair)."""

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


class AnceptionLayer:
    """Host-side redirection layer plus its container VM."""

    __snapshot__ = "auto"

    lines_of_code = ANCEPTION_LINES_OF_CODE
    marshaling_lines = ANCEPTION_MARSHALING_LINES

    def __init__(self, machine, host_system, guest_mb=64,
                 file_io_on_host=False, ring_depth=None, read_cache=False,
                 cache_pages=1024, async_delegation=False,
                 write_behind_depth=None, binder_ring=False,
                 binder_ring_depth=None, cvms=1, placement=None):
        self.machine = machine
        self.host_kernel = machine.kernel
        self.host_system = host_system
        # Lane-construction config, consumed by _bind_lane at boot and
        # again on every lane-scoped reboot.
        self._guest_mb = guest_mb
        self._ring_depth = ring_depth
        self._read_cache = read_cache
        self._cache_pages = cache_pages
        self._async_delegation = async_delegation
        self._write_behind_depth = write_behind_depth
        self._binder_ring_on = binder_ring
        self._binder_ring_depth = binder_ring_depth
        self._firewall_rule = None
        self.pool = CVMPool(machine.clock, cvms=cvms, placement=placement)
        """The routed transport: one :class:`~repro.core.pool.CVMLane`
        per container VM, plus the deterministic placement map.  The
        single-CVM default is byte-identical to the pre-pool layer."""
        self.pool.layer = self
        for lane in self.pool.lanes:
            self._bind_lane(lane)
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
            lane.cvm.hypervisor, self.machine.costs,
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
            lane.write_behind = self._arm_windows(
                lane, lane.write_behind, WRITE_BEHIND,
                self._write_behind_depth)
        if self._binder_ring_on:
            lane.binder_ring = self._arm_windows(
                lane, lane.binder_ring, BINDER, self._binder_ring_depth)
        lane.cvm.kernel.network.firewall = self._firewall_rule
        return lane

    def _arm_windows(self, lane, windows, policy, depth):
        """A new lane's async windows, or a rebooted lane's cleared:
        staged entries and ledgered errnos name descriptors and service
        instances that died with the old container."""
        if windows is not None:
            windows.clear()
            return windows
        if depth is None:
            depth = min(WINDOW_DEPTH, lane.channel.ring_depth)
        return AsyncWindows(policy, depth, self, lane)

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
            # writev/readv decompose into per-iovec ring descriptors
            # that share one doorbell pair.
            if (name in ("writev", "readv") and len(args) >= 2
                    and isinstance(args[0], int)
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
                                                       kwargs, lane):
                return self._wb_enqueue(task, name, args, lane)
            # Every other redirected call is a fence: the staged windows
            # drain (and the lane settles) before it runs, preserving
            # program order — and keeping the page cache coherent, since
            # the drain's completions write through before any cached
            # read below can hit.
            self._wb_fence(lane, task, name, args)
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
            if name == "writev" and self._wb_writable(task, fd, lane) \
                    and all(isinstance(entry, (bytes, bytearray, memoryview))
                            for entry in vec):
                # Defer per-iovec, matching the sync decomposition: each
                # entry becomes its own staged write descriptor.
                return sum(
                    self._wb_enqueue(task, "write", (fd, entry), lane)
                    for entry in vec
                )
            self._wb_fence(lane, task, name, (fd,))
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
        pre-staged ``wire`` size (an async-window drain) skips the
        marshal step — the host already paid for packing when the call
        deferred — and the drain tags its descriptors with its window's
        ``ring_flags``.  Window-shaped callers resolve the task's
        ``lane`` once and pass it down instead of paying the pool lookup
        per descriptor.
        """
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
        seq = lane.channel.submit_ring.push(name, wire, flags=ring_flags)
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
        if name in _FD_RESULT_CALLS:
            label = args[0] if name == "open" and args else name
            return self._adopt_fd(task, name, result, str(label))
        return result

    def _adopt_fd(self, task, name, result, label, newfd=None):
        """Bind the fd a CVM call returned (``pipe``: its pair) to host fds.

        The fd contract: each fd is a non-negative ``int`` the app's
        table does not already bind, and a pipe answers with a 2-tuple
        of two distinct such fds.  Anything else is refused with EIO
        before a host fd is allocated or ``newfd`` (dup2's target) is
        closed.  Returns the host fd, or the pair's tuple for ``pipe``.
        """
        table = self._fd_table(task)
        pair = name == "pipe"
        proxy_fds = result if pair and type(result) is tuple else (result,)
        if (pair and (len(proxy_fds) != 2 or proxy_fds[0] == proxy_fds[1])) \
                or not all(type(fd) is int and fd >= 0
                           and not table.binds_proxy(fd)
                           for fd in proxy_fds):
            raise SyscallError(
                errno.EIO, f"CVM answered {name} with fd {result!r}",
                call=name,
            )
        if newfd is not None:
            if newfd in task.fd_table:
                self._split_close(task, newfd)
            task.install_fd(newfd, RemoteFdStub(result, label))
            table.bind(newfd, result)
            return newfd
        host_fds = []
        for proxy_fd in proxy_fds:
            host_fd = task.alloc_fd(RemoteFdStub(proxy_fd, label))
            table.bind(host_fd, proxy_fd)
            host_fds.append(host_fd)
        return tuple(host_fds) if pair else host_fds[0]

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
                wb.surface(task, fd, "close")
            return 0
        return self.host_kernel.execute_native(task, "close", (fd,), {})

    def _split_dup(self, task, fd):
        table = self._fd_table(task)
        if table.is_remote(fd):
            proxy_fd = table.to_proxy(fd)
            new_proxy_fd = self._redirect(
                task, "dup", (fd,), {}, translated=(proxy_fd,)
            )
            return self._adopt_fd(task, "dup", new_proxy_fd, "dup")
        return self.host_kernel.execute_native(task, "dup", (fd,), {})

    def _split_dup2(self, task, fd, newfd):
        table = self._fd_table(task)
        if table.is_remote(fd):
            proxy_fd = table.to_proxy(fd)
            new_proxy_fd = self._redirect(
                task, "dup", (fd,), {}, translated=(proxy_fd,)
            )
            return self._adopt_fd(task, "dup2", new_proxy_fd, "dup2",
                                  newfd=newfd)
        return self.host_kernel.execute_native(task, "dup2", (fd, newfd), {})

    def _split_fcntl(self, task, fd, cmd, arg=0):
        table = self._fd_table(task)
        if table.is_remote(fd):
            proxy_fd = table.to_proxy(fd)
            result = self._redirect(
                task, "fcntl", (fd, cmd, arg), {},
                translated=(proxy_fd, cmd, arg),
            )
            if cmd == 0:  # F_DUPFD
                return self._adopt_fd(task, "fcntl", result, "fcntl-dup")
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
        ring = self._lane(task).binder_ring
        if ring is not None:
            from repro.android.binder import IOC_WAIT_INPUT_EVT

            if request == IOC_WAIT_INPUT_EVT:
                ring.settle(task, "wait-input")
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
        """
        lane = self._lane(task)
        ring = lane.binder_ring
        if ring is not None:
            if self._binder_accepts(lane, transaction):
                return self._binder_enqueue(task, request, transaction, lane)
            ring.fence(task, "transact", transaction.target, call="ioctl")
        self.machine.clock.advance(self.machine.costs.binder_cvm_fixed_ns,
                                   "anception:binder-cvm")
        payload = transaction.payload_size
        proxy = lane.proxies.proxy_for(task)
        proxy_binder_fd = self._ensure_proxy_binder(lane, proxy)
        args = (fd, request, transaction)
        translated = (proxy_binder_fd, request, transaction)
        if self._charge_parcel(ring, payload):
            with lane.channel.bulk_copy():
                return self._redirect(task, "ioctl", args, {},
                                      translated=translated)
        return self._redirect(task, "ioctl", args, {}, translated=translated)

    def _charge_parcel(self, ring, payload):
        """Bill one binder parcel into the CVM; ``True`` if it streams.

        With the binder ring on, parcels above a page skip the
        marshal-interleaved per-byte rate and stream through the ring's
        bulk-copy window at the ``binder_parcel_page_ns`` page rate —
        for synchronous transactions and drained oneways alike.
        """
        costs = self.machine.costs
        if ring is not None and payload > PAGE_SIZE:
            ring.bulk_parcels += 1
            self.machine.clock.advance(
                costs.binder_parcel_page_ns * costs.chunks(payload),
                "anception:binder-parcel",
            )
            return True
        self.machine.clock.advance(
            int(costs.binder_cvm_per_byte_ns * payload),
            "anception:binder-bytes",
        )
        return False

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
            if not isinstance(data, bytes) or len(data) > length:
                # The CVM is untrusted: an oversized or mistyped answer
                # would be written past the new mapping with need_prot=0
                # (an Iago overwrite).  Refuse it before mapping.
                raise SyscallError(
                    errno.EIO,
                    f"CVM pread64 result does not fit a {length}-byte "
                    f"mapping",
                    call="mmap2",
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
    # moving an app between lanes
    # ------------------------------------------------------------------

    def rebalance(self, task, target):
        """Move an app to ``target`` idle: drain its async windows, then
        :meth:`migrate` it (nothing staged travels with it)."""
        lane = self._lane(task)
        for windows in (lane.write_behind, lane.binder_ring):
            if windows is not None:
                windows.drain(task, "rebalance")
        return self.migrate(task, target)

    def migrate(self, task, target):
        """Warm-move an enrolled app to ``target`` with its state intact.

        ``migrate`` is the per-app cut of the world serializer:
        :func:`~repro.core.snapshot.app_slice` captures the app's whole
        lane-held delegation bundle — open remote fds with offsets, the
        private data tree with its permission modes, *still-pending*
        write-behind window entries, both deferred-errno ledgers, cached
        pages in LRU recency order — and
        :func:`~repro.core.snapshot.apply_app_slice` re-materializes it
        on the target.  The move is invisible to the app: staged windows
        still drain at its next fence, warm reads stay warm.

        ``target`` is a :class:`~repro.core.pool.CVMLane` or a cvm id.
        Pending binder transactions do drain first — their window
        entries hold live Transaction objects bound to source-container
        services and cannot be re-targeted.  Returns ``True`` on a
        committed move; same-lane moves are a no-op ``False``.  Apps
        whose lane state cannot be sliced (non-file CVM fds, live SysV
        shm attachments) are skipped with a ``("migrate-skip", …)``
        recovery-log entry, and the ``pool.rebalance-loss`` fault site
        aborts the move just before its commit point
        (``("migrate-abort", …)``): the app simply stays put.
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
            source.binder_ring.drain(task, "migrate")
        clock = self.machine.clock
        clock.wait_for(source.cvm.lane, "anception:migrate")
        try:
            slice_ = app_slice(self, task)
        except AppSliceError as exc:
            self.recovery_log.append(("migrate-skip", str(exc)))
            maybe_event(clock, "recovery", "migrate-skip",
                        task=task, kernel=self.host_kernel.label,
                        source=source.name, target=target.name)
            return False
        pid = task.pid
        move = f"pid {pid} {source.name}->{target.name}"
        engine = clock.faults
        if engine is not None and engine.pool_rebalance_loss(call=task.name):
            self.recovery_log.append(("migrate-abort", move))
            maybe_event(clock, "recovery", "migrate-abort", task=task,
                        kernel=self.host_kernel.label, source=source.name,
                        target=target.name)
            return False
        # Source teardown: the slice carries everything the app needs,
        # so the source lane forgets the pid entirely — its windows, its
        # ledger entries, its proxy, its cached pages.
        for windows in (source.write_behind, source.binder_ring):
            if windows is not None:
                windows.forget(pid)
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
        self.recovery_log.append(("migrate", move))
        maybe_event(clock, "recovery", "migrate", task=task,
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
    # async windows: which calls defer, which calls fence (DESIGN §9)
    # ------------------------------------------------------------------

    _WB_DEFERRABLE = ("write", "pwrite64", "ftruncate")
    _WB_FENCE_SURFACING = ("fsync", "fdatasync", "read", "pread64", "readv",
                           "fence")

    def _wb_writable(self, task, fd, lane):
        """Whether ``fd`` is a pre-validated writable regular CVM file
        that write-behind may stage against."""
        if self.crypto_fs is not None or self._batch is not None:
            return False
        if lane.cvm.crashed or lane.cvm.compromised:
            return False
        desc = self._remote_file(task, fd, lane=lane)
        return desc is not None and getattr(desc, "writable", False)

    def _wb_accepts(self, task, name, args, kwargs, lane):
        """Whether this call may defer into a write-behind window.

        Only side-effect-only calls whose results are known up front
        (byte counts / zero) on pre-validated writable regular CVM
        files qualify — so in an unfaulted run a deferred call cannot
        fail, and async results stay byte-identical to sync.
        """
        if kwargs or name not in self._WB_DEFERRABLE or not args \
                or not isinstance(args[0], int) \
                or not self._wb_writable(task, args[0], lane):
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

    def _wb_enqueue(self, task, name, args, lane):
        """Stage one deferred call; return its optimistic result."""
        windows = lane.write_behind
        window = windows.reserve(task)
        if name == "ftruncate":
            args, result = (args[0], args[1]), 0
        else:
            payload = bytes(args[1])
            args, result = (args[0], payload, *args[2:]), len(payload)
        call_args = self._fd_table(task).translate_args(name, args)
        _call, size = marshal_call(name, call_args, {})
        return windows.stage(task, window, name, args, call_args, args[0],
                             result, size)

    def _wb_fence(self, lane, task, name, args=()):
        """Drain and settle the owning lane; surface a deferred errno.

        fsync/fdatasync/read-after-write (and the explicit ``fence``
        veneer) pop the ledger entry for their fd; ``close`` surfaces
        in :meth:`_split_close` after teardown.
        """
        fd = None
        if name in self._WB_FENCE_SURFACING and args \
                and isinstance(args[0], int):
            fd = args[0]
        lane.write_behind.fence(task, name, fd)

    def wb_fence(self, task, fd=None):
        """Explicit write-behind barrier (the libc ``fence`` veneer).

        Drains every staged window on the task's lane, waits out the
        CVM lane, and — when ``fd`` names a descriptor with a ledgered
        deferred error — surfaces that errno exactly once.  No-op when
        write-behind is off, so the same op-script runs in every mode.
        """
        lane = self._lane(task)
        if lane.write_behind is not None:
            self._wb_fence(lane, task, "fence", (fd,))
        return 0

    def _binder_accepts(self, lane, transaction):
        """Whether this transaction may defer into a binder window.

        Only oneway transactions to services that already exist in the
        CVM qualify — the name lookup happens at enqueue time, so a
        missing target raises ENOENT at the call site in every mode and
        an unfaulted deferred delivery cannot fail (the driver swallows
        service-side errors for oneway in every mode too).
        """
        if not transaction.is_oneway or self._batch is not None:
            return False
        if lane.cvm.crashed or lane.cvm.compromised:
            return False
        return lane.cvm.android.has_service(transaction.target)

    def _binder_enqueue(self, task, request, transaction, lane):
        """Stage one oneway transaction; return ``None`` optimistically.

        The parcel is serialized now (snapshot semantics: a later
        payload mutation must not reach the service); the cross-VM
        fixed cost is paid once per drained window.
        """
        from repro.android.binder import Transaction

        windows = lane.binder_ring
        window = windows.reserve(task)
        payload = transaction.payload
        if isinstance(payload, dict):
            payload = dict(payload)
        staged = Transaction(transaction.target, transaction.method,
                             payload, transaction.flags)
        proxy = lane.proxies.proxy_for(task)
        call_args = (self._ensure_proxy_binder(lane, proxy), request, staged)
        _call, size = marshal_call("ioctl", call_args, {})
        return windows.stage(task, window, "ioctl", call_args, call_args,
                             staged.target, None, size,
                             label=f"{staged.target}.{staged.method}")

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
        for lane in self.pool.lanes:
            for windows in (lane.write_behind, lane.binder_ring):
                if windows is not None:
                    windows.settle(task, "fence")
        own = self._lane(task)
        if own.write_behind is not None and fd is not None:
            own.write_behind.surface(task, fd, "fence")
        if own.binder_ring is not None:
            own.binder_ring.surface(task, ANY_KEY, "fence")
        return 0

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
