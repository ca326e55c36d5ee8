"""The chaos harness: run a workload with faults armed, report exactly.

``run_chaos`` boots a fresh Anception world, arms a :class:`FaultEngine`
on its clock, switches the Anception layer to the all-on recovery
policy, and runs one of the traced workloads (or any callable) under
trace-bus capture.  Because the whole stack is deterministic in
simulated time, the resulting report — faults fired, recoveries taken,
metrics, elapsed nanoseconds — serializes byte-identically for the same
(workload, plan, seed) triple; CI diffs two runs to prove it.
"""

from __future__ import annotations

import json

from repro.android.app import App, AppManifest
from repro.core.config import PAPER
from repro.core.recovery import RecoveryPolicy
from repro.errors import SyscallError
from repro.faults.engine import FaultEngine
from repro.faults.plan import FaultPlan
from repro.obs.runner import observed_run, resolve_workload, warm_start


class ChaosApp(App):
    """The enrolled app the chaos harness torments."""

    manifest = AppManifest("com.chaos.prey", permissions=("INTERNET",))

    def main(self, ctx):
        return {"status": "ready"}


DEFAULT_PLAN = (
    "channel.corrupt:nth=2;"
    "irq.drop:nth=5;"
    "proxy.kill:nth=2:call=open;"
    "cvm.crash:nth=4:call=open"
)
"""One rule per delegation layer — a tour of everything the
recovery path can survive, each firing exactly once."""


class ChaosResult:
    """Everything one chaos run produced."""

    def __init__(self, workload, seed, plan, status, error, elapsed_ns,
                 faults, recovery_log, records, metrics, world):
        self.workload = workload
        self.seed = seed
        self.plan = plan
        self.status = status
        self.error = error
        self.elapsed_ns = elapsed_ns
        self.faults = faults
        self.recovery_log = recovery_log
        self.records = records
        self.metrics = metrics
        self.world = world

    def report(self):
        """Deterministic JSON-able summary of the run."""
        return {
            "workload": self.workload,
            "seed": self.seed,
            "plan": self.plan,
            "status": self.status,
            "error": self.error,
            "elapsed_ns": self.elapsed_ns,
            "faults": self.faults,
            "recoveries": [list(entry) for entry in self.recovery_log],
            "metrics": self.metrics.snapshot(self.records),
        }


def chaos_report_json(result):
    """Serialize a chaos report with fully deterministic ordering."""
    return json.dumps(result.report(), indent=2, sort_keys=True)


def run_chaos(workload, seed=0, faults=None, recovery=True, observe=True,
              config=PAPER, world=None):
    """Run ``workload`` with ``faults`` armed; never hangs, always reports.

    ``workload`` is a name from the traced-workload registry or any
    callable taking an app context.  ``faults`` is a plan string, a
    :class:`FaultPlan`, or ``None`` for :data:`DEFAULT_PLAN`.
    ``recovery=False`` runs with the default (disabled) policy, which is
    how the degradation guarantee — a well-defined errno, not a hang —
    is exercised.  ``config`` is the booted world's
    :class:`~repro.core.config.DelegationConfig`; the ``cache.*``,
    ``wb.*`` and ``binder.*`` sites need its read cache, write-behind
    and binder ring on, and the ``pool.*`` sites need ``cvms > 1``.

    Workloads with ``needs_world = True`` (the fleet driver) receive
    the booted world instead of the prey app's context.

    ``world`` warm-starts the campaign on an already-booted (typically
    snapshot-restored) world; ``config`` is ignored in that case.  A
    restored mid-campaign world resumes with its armed fault engine's
    trigger cursor and PRNG intact unless a fresh plan is armed here.
    """
    name, fn = resolve_workload(workload)
    plan = FaultPlan.parse(DEFAULT_PLAN if faults is None else faults)
    world, target = warm_start(name, fn, world, config, app=ChaosApp)
    if recovery:
        world.anception.recovery = RecoveryPolicy.chaos_default()
    engine = FaultEngine(plan, seed=seed)
    engine.arm(world.clock)
    status, error = "ok", None

    def _run():
        nonlocal status, error
        try:
            fn(target)
        except SyscallError as exc:
            status, error = "syscall-error", str(exc)

    try:
        # The registry is built after arming: it reads the engine's
        # fault counts from the clock.
        elapsed_ns, records, metrics = observed_run(world, _run, observe)
    finally:
        engine.disarm()

    return ChaosResult(
        workload=name,
        seed=seed,
        plan=plan.describe(),
        status=status,
        error=error,
        elapsed_ns=elapsed_ns,
        faults=engine.report(),
        recovery_log=list(world.anception.recovery_log),
        records=records,
        metrics=metrics,
        world=world,
    )
