"""The fault engine: deterministic, seed-driven fault resolution.

The engine attaches to the simulation's shared :class:`~repro.clock.SimClock`
(the same pattern the trace bus uses), so every delegation layer can reach
it without new plumbing: instrumented sites call :func:`maybe_engine` and
ask whether a fault fires *here, now*.  All randomness comes from one
``random.Random(seed)``, and trigger counters advance only on eligible
occurrences — so a (plan, seed, call-stream) triple resolves identically
on every run, which is what makes chaos failures replayable.

Every fired fault is recorded on the engine (for the deterministic chaos
report) and emitted as a ``fault`` event on the trace bus (for the Chrome
trace and metrics), without advancing simulated time.
"""

from __future__ import annotations

import random

from repro.errors import SyscallError
from repro.faults.plan import FaultPlan
from repro.obs.bus import maybe_event


def maybe_engine(clock):
    """The engine armed on ``clock``, or ``None`` (the common case)."""
    return getattr(clock, "faults", None)


class FaultEngine:
    """Resolves a :class:`FaultPlan` against one run's call stream."""

    __snapshot__ = "auto"

    def __init__(self, plan=None, seed=0):
        self.plan = FaultPlan.parse(plan) if not isinstance(plan, FaultPlan) \
            else plan
        self.seed = seed
        self.rng = random.Random(seed)
        self.clock = None
        self._occurrences = [0] * len(self.plan.rules)
        self._fires = [0] * len(self.plan.rules)
        self.fired = []
        """Chronological fire log: dicts of (site, spec, occurrence, ts_ns)."""

    # -- attachment ----------------------------------------------------------

    def arm(self, clock):
        """Attach to ``clock``; instrumented layers see the engine via it."""
        self.clock = clock
        clock.faults = self
        return self

    def disarm(self):
        if self.clock is not None and getattr(self.clock, "faults", None) is self:
            self.clock.faults = None
        self.clock = None

    # -- resolution ----------------------------------------------------------

    def check(self, site, call=None, kernel=None):
        """Return the first rule firing at ``site`` for this occurrence.

        Each matching rule's occurrence counter advances exactly once per
        call, whether or not it fires — the trigger arithmetic (and any
        PRNG draw for probability rules) is therefore a pure function of
        the eligible call stream.
        """
        hit = None
        for index, rule in self.plan.rules_for(site):
            if not rule.matches(call=call, kernel=kernel):
                continue
            self._occurrences[index] += 1
            if hit is None and self._triggers(index, rule):
                self._fires[index] += 1
                hit = (index, rule)
        if hit is None:
            return None
        index, rule = hit
        self._record_fire(index, rule, call=call, kernel=kernel)
        return rule

    def _triggers(self, index, rule):
        n = self._occurrences[index]
        if rule.times is not None and self._fires[index] >= rule.times:
            return False
        if rule.nth is not None:
            return n == rule.nth
        if rule.after is not None and n <= rule.after:
            return False
        if rule.every is not None:
            return n % rule.every == 0
        if rule.probability is not None:
            return self.rng.random() < rule.probability
        return True

    def _record_fire(self, index, rule, call=None, kernel=None):
        record = {
            "site": rule.site,
            "rule": rule.spec(),
            "occurrence": self._occurrences[index],
            "ts_ns": self.clock.now_ns if self.clock is not None else 0,
        }
        if call is not None:
            record["call"] = call
        if kernel is not None:
            record["kernel"] = kernel
        self.fired.append(record)
        if self.clock is not None:
            maybe_event(
                self.clock, "fault", rule.site, kernel=kernel,
                site=rule.site, rule=rule.spec(),
                occurrence=record["occurrence"], call=call or "",
            )

    # -- per-layer entry points ---------------------------------------------
    #
    # Each wraps ``check`` with the site's effect semantics; the *caller*
    # stays in charge of state it owns (the proxy manager reaps its own
    # task, the channel mangles its own payload).

    def perturb_syscall(self, kernel, task, name):
        """Syscall-dispatch sites: injected errno failures and delays."""
        delay = self.check("syscall.delay", call=name, kernel=kernel.label)
        if delay is not None:
            kernel.clock.advance(
                delay.delay_ns or kernel.costs.syscall_base_ns,
                f"fault:syscall-delay:{name}",
            )
        failure = self.check("syscall.error", call=name, kernel=kernel.label)
        if failure is not None:
            raise SyscallError(
                failure.errno_value, "injected fault", call=name
            )

    def channel_stall_ns(self, direction):
        """Stall duration for one transfer (0 when no stall fires)."""
        rule = self.check("channel.stall", call=direction)
        if rule is None:
            return 0
        return rule.delay_ns or 100_000

    def channel_delivery(self, direction, size):
        """What a transfer of ``size`` bytes delivers: ``(size, corrupt)``.

        ``channel.corrupt`` delivers every byte but marks the transfer
        corrupt; ``channel.truncate`` delivers half.  Empty payloads
        cross untouched (there is nothing to mangle), so the occurrence
        counters only advance for real transfers.
        """
        if not size:
            return size, False
        if self.check("channel.corrupt", call=direction) is not None:
            self._draw_flipped_byte(size)
            return size, True
        if self.check("channel.truncate", call=direction) is not None:
            return size // 2, False
        return size, False

    def ring_corrupt(self, call, size):
        """Should the descriptor slot being popped be marked corrupt?

        Fires at pop time, *after* the payload crossed the channel —
        modelling corruption of the descriptor slot itself, which the
        consumer's corrupt-mark check is there to catch.  Empty payloads
        cross untouched (nothing to mangle).
        """
        if not size:
            return False
        if self.check("ring.corrupt", call=call) is None:
            return False
        self._draw_flipped_byte(size)
        return True

    def _draw_flipped_byte(self, size):
        """Draw the index of the byte a corruption flips.

        The wire carries no bytes, so nothing reads the index; drawing
        it keeps the PRNG stream — and so every later probability
        rule's firing cursor — identical to a model that flips a real
        payload byte.
        """
        return self.rng.randrange(size)

    def ring_reorder(self, call=None):
        """Should the next ring pop deliver descriptors out of order?"""
        return self.check("ring.reorder", call=call) is not None

    def ring_full_stall_ns(self, call=None):
        """Backpressure stall charged to a ring push (0 = no stall)."""
        rule = self.check("ring.full", call=call)
        if rule is None:
            return 0
        return rule.delay_ns or 100_000

    def cache_stale(self, call=None):
        """Should this page-cache lookup be treated as stale?

        The layer recovers by invalidating the file's cached pages and
        refetching through the ring — the demand-miss path — so a stale
        hit can never serve wrong bytes, only cost the cold latency.
        """
        return self.check("cache.stale", call=call) is not None

    def cache_evict(self, call=None):
        """Evict the demanded pages just before a cache lookup?"""
        return self.check("cache.evict", call=call) is not None

    def pool_placement_flap(self, call=None):
        """Divert this enrollment's placement one lane over?

        Only consulted by multi-lane pools, so single-CVM chaos replays
        never advance its counters.
        """
        return self.check("pool.placement-flap", call=call) is not None

    def pool_rebalance_loss(self, call=None):
        """Abort an app migration before its commit point (the app
        stays on its source lane)?"""
        return self.check("pool.rebalance-loss", call=call) is not None

    def drop_irq(self):
        return self.check("irq.drop") is not None

    def duplicate_irq(self):
        return self.check("irq.dup") is not None

    def drop_hypercall(self):
        return self.check("hypercall.drop") is not None

    def kill_proxy(self, call=None):
        return self.check("proxy.kill", call=call) is not None

    def crash_cvm(self, call=None):
        return self.check("cvm.crash", call=call) is not None

    def compromise_cvm(self, call=None):
        return self.check("cvm.compromise", call=call) is not None

    def slow_boot_ns(self):
        rule = self.check("cvm.slow-boot")
        if rule is None:
            return 0
        return rule.delay_ns or 250_000_000

    # -- reporting -----------------------------------------------------------

    def report(self):
        """Deterministic JSON-able summary of everything that fired."""
        per_site = {}
        for record in self.fired:
            per_site[record["site"]] = per_site.get(record["site"], 0) + 1
        return {
            "plan": self.plan.describe(),
            "seed": self.seed,
            "fired": list(self.fired),
            "fired_total": len(self.fired),
            "fired_by_site": dict(sorted(per_site.items())),
        }
