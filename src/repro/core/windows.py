"""Async delegation windows: one engine for write-behind and binder oneways.

Two kinds of delegated call return before the CVM runs them: plain
writes to validated writable CVM files (write-behind) and oneway binder
transactions to services the CVM already hosts.  Both stage into a
bounded per-task window, drain through the lane's ring behind one
doorbell pair while the host keeps running (the CVM clock lane absorbs
the cost), ledger failures per ``(pid, key)`` — first error wins — and
surface each ledgered errno exactly once at the next fence.

:class:`AsyncWindows` is that mechanism, once.  A frozen
:class:`WindowPolicy` per kind holds only what differs: the ledger key,
the label prefix every charge, span, event and error text is built
from, the per-entry and per-window fault sites, the per-window and
per-entry charges, and the reap-loss site.  Which calls may defer, and
which calls fence, stays with the layer (DESIGN §9).
"""

from __future__ import annotations

import errno
from dataclasses import dataclass
from functools import cached_property

from repro.core.ring import RING_FLAG_BINDER, RING_FLAG_WRITE_BEHIND
from repro.errors import DelegationError, SyscallError
from repro.obs.bus import NULL_SPAN, maybe_event


WINDOW_DEPTH = 32
"""Default bound on one task's window (clamped to the ring depth: a
window must drain behind one doorbell pair)."""

ANY_KEY = object()
"""Ledger key wildcard for :meth:`AsyncWindows.surface`: the pid's
earliest key in sorted order (the explicit barrier names no target)."""


@dataclass(frozen=True)
class WindowPolicy:
    """What one window kind does differently; nothing else lives here."""

    __snapshot__ = "custom"

    name: str
    """Module attribute holding this policy.  Snapshots pickle it by
    reference, so a blob never carries the process-wide cached labels."""
    prefix: str
    """``wb``/``binder``: charge labels, span and event kinds."""
    noun: str
    """Flush reasons and the lost-completions error text."""
    window: str
    """Container-check and retry name of a drain."""
    key_attr: str
    """What the ledger key is: ``fd`` or binder ``target``."""
    key_names_errors: bool
    """Ledger events are named by the key (else by the failed call)."""
    key_text: str
    deferred: str
    """A surfaced errno's text: ``deferred`` plus ``key_text`` formatted
    with the key (just ``deferred`` for :data:`ANY_KEY`)."""
    entry_fault: str
    """Per-entry fault site, checked with ``call=`` the entry's name."""
    entry_fault_cancels_rest: bool
    """True: the hit entry fails and the rest of the window is
    cancelled.  False: the hit entry alone is dropped."""
    reap_site: str
    reap_call: str | None
    """``call=`` of the reap-loss check (write-behind names none)."""
    ring_flags: int
    window_fault: str | None = None
    """Per-window fault site: swap the first two entries."""
    window_charge: tuple | None = None
    """``(cost attribute, label)`` paid once per drained window."""
    parcels: bool = False
    """Entries are binder parcels, billed like the synchronous path."""

    def __reduce__(self):
        return self.name

    # Built once: staging runs per deferred call.

    @cached_property
    def stage_label(self):
        return f"anception:{self.prefix}-stage"

    @cached_property
    def submit_kind(self):
        return f"{self.prefix}-submit"

    def deferred_text(self, key):
        if key is ANY_KEY:
            return self.deferred
        return self.deferred + self.key_text.format(key)


WRITE_BEHIND = WindowPolicy(
    name="WRITE_BEHIND", prefix="wb", noun="write-behind",
    window="write-behind", key_attr="fd", key_names_errors=False,
    key_text=" on fd {}",
    deferred="deferred write-behind error",
    entry_fault="wb.error", entry_fault_cancels_rest=True,
    reap_site="wb.reap-loss", reap_call=None,
    ring_flags=RING_FLAG_WRITE_BEHIND,
)

BINDER = WindowPolicy(
    name="BINDER", prefix="binder", noun="binder", window="binder-ring",
    key_attr="target", key_names_errors=True, key_text=" for {!r}",
    deferred="deferred binder delivery error",
    entry_fault="binder.drop", entry_fault_cancels_rest=False,
    reap_site="binder.reply-loss", reap_call="ioctl",
    ring_flags=RING_FLAG_BINDER, window_fault="binder.reorder",
    window_charge=("binder_cvm_fixed_ns", "anception:binder-window"),
    parcels=True,
)


class WindowEntry:
    """One staged call: its marshaled size was paid for at staging."""

    __snapshot__ = "auto"

    __slots__ = ("name", "args", "call_args", "wire", "key", "result")

    def __init__(self, name, args, call_args, wire, key, result):
        self.name = name
        self.args = args
        self.call_args = call_args
        self.wire = wire
        self.key = key
        self.result = result

    def __repr__(self):
        return f"WindowEntry({self.name}, key={self.key!r})"


class Window:
    """One task's open window of staged entries."""

    __snapshot__ = "auto"

    __slots__ = ("task", "entries")

    def __init__(self, task):
        self.task = task
        self.entries = []


class AsyncWindows:
    """One lane's windows of one kind, its ledger and its counters."""

    __snapshot__ = "auto"

    def __init__(self, policy, depth, layer, lane):
        if depth < 1:
            raise ValueError(
                f"{policy.noun} window needs a depth of at least 1, "
                f"got {depth}")
        self.policy = policy
        self.depth = depth
        self.layer = layer
        self.lane = lane
        self.windows = {}
        """pid -> :class:`Window` of staged entries."""
        self.errors = {}
        """(pid, key) -> deferred :class:`SyscallError` (first wins)."""
        self.enqueued = 0
        self.drains = 0
        self.fences = 0
        self.deferred_errors = 0
        self.max_depth_seen = 0
        self.bulk_parcels = 0
        self.dropped = 0
        self.reordered = 0

    # -- state ---------------------------------------------------------------

    def window(self, task):
        window = self.windows.get(task.pid)
        if window is None:
            window = self.windows[task.pid] = Window(task)
        return window

    @property
    def staged(self):
        """Entries staged in the open windows, not yet drained."""
        return sum(len(window.entries) for window in self.windows.values())

    def pending_windows(self):
        """Windows with staged entries, in deterministic pid order."""
        return [w for _pid, w in sorted(self.windows.items()) if w.entries]

    def ledger_of(self, pid):
        """This pid's ledgered errors, in sorted key order."""
        return {key: self.errors[key]
                for key in sorted(k for k in self.errors if k[0] == pid)}

    def forget(self, pid):
        """Drop a pid's window and ledger entries (it left the lane)."""
        self.windows.pop(pid, None)
        for key in self.ledger_of(pid):
            del self.errors[key]

    def clear(self):
        """Drop all windows and ledger entries (container reboot: the
        descriptors and services they named died with the old CVM)."""
        self.windows.clear()
        self.errors.clear()

    # -- staging -------------------------------------------------------------

    def reserve(self, task):
        """The task's window, drained first if it is full.

        Bounded depth: a full window is the only point deferral blocks
        (the drain waits for the lane before re-posting).
        """
        window = self.window(task)
        if len(window.entries) >= self.depth:
            self.drain(task, "window-full")
        return window

    def stage(self, task, window, name, args, call_args, key, result, wire,
              label=None):
        """Stage one marshaled call; return its optimistic ``result``.

        The host pays the fixed marshal plus a page-rate staging copy
        and keeps running — posting, channel bytes, doorbells and CVM
        execution land on the lane at drain time.
        """
        costs = self.layer.machine.costs
        clock = self.layer.machine.clock
        clock.advance(costs.marshal_fixed_ns, "anception:marshal")
        clock.advance(costs.wb_stage_page_ns * max(costs.chunks(wire), 1),
                      self.policy.stage_label)
        window.entries.append(
            WindowEntry(name, args, call_args, wire, key, result)
        )
        self.enqueued += 1
        self.max_depth_seen = max(self.max_depth_seen, len(window.entries))
        maybe_event(clock, self.policy.submit_kind, label or name, task=task,
                    kernel=self.layer.host_kernel.label,
                    depth=len(window.entries), bytes=wire)
        return result

    # -- drains and fences ---------------------------------------------------

    def drain(self, task, reason):
        """Ship one task's staged window through the ring on this lane."""
        window = self.windows.get(task.pid)
        if window is None or not window.entries:
            return
        entries, window.entries = window.entries, []
        self.drains += 1
        layer, policy = self.layer, self.policy
        clock = layer.machine.clock
        cvm_lane = self.lane.cvm.lane
        # The previous drain must retire before this one posts — the
        # bounded in-flight depth is the backpressure contract.
        clock.wait_for(cvm_lane, f"anception:{policy.prefix}-backpressure")
        bus = clock.bus
        span = NULL_SPAN if bus is None or not bus._depth else bus.span(
            f"{policy.prefix}-drain", f"{reason}:{len(entries)}", task=task,
            kernel=layer.host_kernel.label, batch=len(entries),
            reason=reason, **layer._lane_tags(self.lane),
        )
        with span:
            with clock.overlap(cvm_lane):
                self._run(task, entries)
            # The backpressure wait settled the lane, so the backlog is
            # exactly the lane time this drain consumed.
            span.set(lane_ns=clock.lane_backlog_ns(cvm_lane))

    def settle(self, task, name):
        """Drain every staged window on this lane and settle its clock.

        Lane-scoped: sibling lanes keep riding their own clocks (the
        cross-lane barrier is the layer's ``async_fence``).
        """
        layer, policy = self.layer, self.policy
        drained = 0
        for window in self.pending_windows():
            drained += len(window.entries)
            self.drain(window.task, f"fence:{name}")
        clock = layer.machine.clock
        waited = clock.wait_for(self.lane.cvm.lane,
                                f"anception:{policy.prefix}-fence:{name}")
        if drained or waited:
            self.fences += 1
            maybe_event(clock, f"{policy.prefix}-fence", name, task=task,
                        kernel=layer.host_kernel.label, drained=drained,
                        waited_ns=waited, **layer._lane_tags(self.lane))

    def fence(self, task, name, key=None, call=None):
        """Settle the lane, then surface ``key``'s deferred errno."""
        self.settle(task, name)
        if key is not None:
            self.surface(task, key, call or name)

    def surface(self, task, key, call):
        """Raise the ledgered errno for ``(pid, key)``, exactly once.

        The pop is what makes a deferred error surface once; ``ANY_KEY``
        pops the pid's earliest key.
        """
        if key is ANY_KEY:
            keys = list(self.ledger_of(task.pid))
            deferred = self.errors.pop(keys[0]) if keys else None
        else:
            deferred = self.errors.pop((task.pid, key), None)
        if deferred is not None:
            raise SyscallError(deferred.errno,
                               self.policy.deferred_text(key),
                               call=call) from deferred

    # -- the drained window on the lane --------------------------------------

    def _run(self, task, entries):
        """Forward one drained window behind one doorbell pair.

        Runs inside the lane's overlap window.  Failures never raise to
        the (long-gone) call site: they ledger per key for the next
        fence to surface.
        """
        layer = self.layer
        engine = layer.machine.clock.faults
        attempt = 0
        while True:
            layer._ensure_container(self.lane, self.policy.window)
            try:
                sent = self._post(task, entries, engine)
                if not sent:
                    return
                if engine is not None and engine.check(
                        self.policy.reap_site,
                        call=self.policy.reap_call) is not None:
                    self._reap_lost(task, sent)
                else:
                    self._complete(task, sent)
                return
            except DelegationError as failure:
                attempt += 1
                if not layer.recovery.enabled \
                        or attempt > layer.recovery.max_retries:
                    self._fail(task, entries, SyscallError(
                        errno.EIO, f"delegation failed: {failure}",
                        call=entries[0].name,
                    ))
                    return
                layer._recover_from(task, failure, attempt,
                                    self.policy.window)

    def _post(self, task, entries, engine):
        """Submit the window's surviving entries and ring the doorbells;
        returns the ``(entry, pending)`` pairs that went out."""
        layer, policy, lane = self.layer, self.policy, self.lane
        if policy.window_fault is not None and engine is not None \
                and len(entries) > 1 and engine.check(
                    policy.window_fault, call=entries[0].name) is not None:
            entries = [entries[1], entries[0], *entries[2:]]
            self.reordered += 1
        sent = []
        with lane.channel.bulk_copy():
            if policy.window_charge is not None:
                cost, label = policy.window_charge
                layer.machine.clock.advance(
                    getattr(layer.machine.costs, cost), label)
            for index, entry in enumerate(entries):
                rule = None if engine is None else engine.check(
                    policy.entry_fault, call=entry.name)
                if rule is not None and rule.errno_value:
                    failed = SyscallError(
                        rule.errno_value,
                        f"injected fault: {policy.entry_fault}",
                        call=entry.name,
                    )
                    if policy.entry_fault_cancels_rest:
                        self._fail(task, entries[index:], failed)
                        break
                    self.dropped += 1
                    self.record(task, entry.key, failed)
                    continue
                if policy.parcels:
                    layer._charge_parcel(self,
                                         entry.call_args[2].payload_size)
                sent.append((entry, layer.submit(
                    task, entry.name, entry.args, {},
                    translated=entry.call_args, wire=entry.wire,
                    ring_flags=policy.ring_flags, lane=lane,
                )))
            if sent:
                layer.flush(task, reason=f"{policy.noun}:{len(sent)}",
                            lane=lane)
        return sent

    def _complete(self, task, sent):
        for entry, pending in sent:
            try:
                self.layer.complete(pending, lane=self.lane)
            except SyscallError as exc:
                self.record(task, entry.key, exc)

    def _reap_lost(self, task, sent):
        """The reap-loss site struck: the reaper missed this window.

        With recovery on, the completions already sit in the shared
        pages, so the reaper times out and polls them back — it never
        re-submits (a replayed write or transaction is not idempotent).
        With recovery off the outcomes are gone: EIO for the first
        entry, ECANCELED for the rest.
        """
        layer = self.layer
        if layer.recovery.enabled:
            clock = layer.machine.clock
            poll = f"{self.policy.prefix}-reap-poll"
            clock.advance(layer.recovery.signal_timeout_ns,
                          f"anception:{poll}")
            layer.recovery_log.append((poll, f"{len(sent)} completions"))
            maybe_event(clock, "recovery", poll, task=task,
                        kernel=layer.host_kernel.label, batch=len(sent))
            self._complete(task, sent)
            return
        entries = [entry for entry, _pending in sent]
        self._fail(task, entries, SyscallError(
            errno.EIO, f"{self.policy.noun} completions lost",
            call=entries[0].name,
        ))

    def _fail(self, task, entries, first):
        """Ledger ``first`` for the first entry, ECANCELED for the rest."""
        self.record(task, entries[0].key, first)
        for entry in entries[1:]:
            self.record(task, entry.key, SyscallError(
                errno.ECANCELED, "aborted by earlier failure in window",
                call=entry.name,
            ))

    def record(self, task, key, exc):
        """Ledger one deferred failure (first per ``(pid, key)`` wins)."""
        ledger_key = (task.pid, key)
        if ledger_key in self.errors:
            return
        self.errors[ledger_key] = exc
        self.deferred_errors += 1
        policy = self.policy
        name = key if policy.key_names_errors \
            else getattr(exc, "call", None) or policy.noun
        maybe_event(self.layer.machine.clock, f"{policy.prefix}-error", name,
                    task=task, kernel=self.layer.host_kernel.label,
                    **{policy.key_attr: key}, errno=exc.errno)
