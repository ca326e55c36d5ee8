"""E10 — Section VI-A: ProfileDroid-style popular-app syscall profiling.

Paper: 58.7%-80.1% (avg 73.7%) of popular apps' syscalls are ioctls;
81.35% of those are UI-related and hence run at native speed.
"""

import pytest

from repro.perf.profiledroid import run_profiledroid


@pytest.fixture(scope="module")
def profile():
    return run_profiledroid()


def test_profiledroid_regenerates(benchmark, capsys):
    report = benchmark.pedantic(run_profiledroid, rounds=1, iterations=1)
    benchmark.extra_info["ioctl_avg"] = report["ioctl_fraction_avg"]
    benchmark.extra_info["ui_share"] = report["ui_share_overall"]
    with capsys.disabled():
        print()
        for app in report["apps"]:
            print(
                f"  {app['app']:<10} {app['total_syscalls']:>5} calls, "
                f"{app['ioctl_fraction']:>5.1f}% ioctl, "
                f"{app['ui_share_of_ioctls']:>6.2f}% of those UI"
            )
        print(
            f"  range {report['ioctl_fraction_min']}-"
            f"{report['ioctl_fraction_max']}%, "
            f"avg {report['ioctl_fraction_avg']}%, "
            f"UI share {report['ui_share_overall']}% "
            f"(paper: 58.7-80.1, avg 73.7, UI 81.35)"
        )


def test_range_matches_paper(profile):
    assert profile["ioctl_fraction_min"] == pytest.approx(58.7, abs=1.0)
    assert profile["ioctl_fraction_max"] == pytest.approx(80.1, abs=1.0)


def test_average_matches_paper(profile):
    assert profile["ioctl_fraction_avg"] == pytest.approx(73.7, abs=1.0)


def test_ui_share_matches_paper(profile):
    assert profile["ui_share_overall"] == pytest.approx(81.35, abs=1.0)


MEASURED = {
    # app: (total_syscalls, ioctls, ui_ioctls), as recorded at the trap.
    "maps": (621, 364, 288),
    "browser": (541, 433, 359),
    "social": (481, 366, 300),
    "video": (501, 374, 299),
    "mail": (451, 328, 266),
    "music": (411, 326, 271),
}
"""Exact per-app counts: a profiler that drops or adds one recorded
call moves at least one of them, which the paper tolerances above
would not notice."""


def test_per_app_counts_are_exact(profile):
    assert {
        app["app"]: (app["total_syscalls"], app["ioctls"], app["ui_ioctls"])
        for app in profile["apps"]
    } == MEASURED


def test_aggregates_are_exact(profile):
    assert (profile["ioctl_fraction_min"], profile["ioctl_fraction_max"],
            profile["ioctl_fraction_avg"], profile["ui_share_overall"]) == (
        58.6, 80.0, 73.6, 81.38)
