"""Section VI-A ProfileDroid-style syscall profiling of popular apps.

Paper: "Using ProfileDroid, we found that approximately 58.7% to 80.1%
(average = 73.7) of system calls made by popular apps are ioctl calls.
After performing an additional custom profiling of only ioctl calls, we
found that 81.35% of such calls are UI-related and thus will run at
native speed."

The profiler records each trap through the kernel's syscall-inspection
hook (``Kernel.policy_monitor``), runs each popular-app workload, and
computes the fractions from the recorded call stream — the profiles in
:data:`repro.workloads.apps.POPULAR_APP_PROFILES` are the workload
inputs; what is *reported* is measured.
"""

from __future__ import annotations

from repro.android.binder import is_ui_transaction
from repro.workloads.apps import popular_apps
from repro.world import NativeWorld


class _TrapRecorder:
    """Stands in for the policy monitor: keeps one pid's (name, args)."""

    def __init__(self, pid):
        self.pid = pid
        self.calls = []

    def inspect(self, kernel, task, name, args):
        if task.pid == self.pid:
            self.calls.append((name, args))


def profile_app(world, app):
    """Run one app under a trap recorder; return its call-mix stats."""
    kernel = world.kernel
    running = world.install_and_launch(app)
    recorder = _TrapRecorder(running.pid)
    previous, kernel.policy_monitor = kernel.policy_monitor, recorder
    try:
        running.run()
    finally:
        kernel.policy_monitor = previous
    total = len(recorder.calls)
    ui_names = world.system.ui_service_names()
    ioctls = [args for name, args in recorder.calls if name == "ioctl"]
    ui_ioctls = sum(is_ui_transaction(ui_names, request, arg)
                    for _fd, request, arg in ioctls)
    return {
        "app": getattr(app, "app_name", app.package),
        "total_syscalls": total,
        "ioctls": len(ioctls),
        "ui_ioctls": ui_ioctls,
        "ioctl_fraction": round(100.0 * len(ioctls) / total, 1),
        "ui_share_of_ioctls": round(
            100.0 * ui_ioctls / len(ioctls), 2
        ) if ioctls else 0.0,
    }


def run_profiledroid():
    """Profile all popular apps; aggregate like the paper."""
    world = NativeWorld()
    profiles = [profile_app(world, app) for app in popular_apps()]
    fractions = [p["ioctl_fraction"] for p in profiles]
    total_ioctls = sum(p["ioctls"] for p in profiles)
    total_ui = sum(p["ui_ioctls"] for p in profiles)
    return {
        "apps": profiles,
        "ioctl_fraction_min": min(fractions),
        "ioctl_fraction_max": max(fractions),
        "ioctl_fraction_avg": round(sum(fractions) / len(fractions), 1),
        "ui_share_overall": round(100.0 * total_ui / total_ioctls, 2),
        "paper": {
            "ioctl_fraction_min": 58.7,
            "ioctl_fraction_max": 80.1,
            "ioctl_fraction_avg": 73.7,
            "ui_share_overall": 81.35,
        },
    }
