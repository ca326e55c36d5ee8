"""E14 — fleet scaling: the 1/2/4/8-CVM curve and its gates.

Every fleet number is *simulated* (syscalls per simulated second), so
the curve itself is deterministic and these tests assert real
invariants — digest equality across pool sizes, monotone scaling, the
1.5x 4-CVM floor, crash isolation — not just structure.  The module
runs the default 48-app sweep once and asserts :func:`check_fleet`
passes on it; the gate-arithmetic tests break copies of that report.
"""

import json

import pytest

from repro.perf.fleet_bench import (
    DEFAULT_APPS,
    DEFAULT_CURVE,
    MIN_SPEEDUP,
    bench_pool_size,
    check_fleet,
    crash_isolation_probe,
    run_fleet_bench,
)


@pytest.fixture(scope="module")
def report():
    return run_fleet_bench()


def test_default_sweep_passes_every_gate(benchmark, report):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    for point in report["scaling"]:
        benchmark.extra_info[f"{point['cvms']}cvm.speedup"] = (
            point["speedup"]
        )
    assert check_fleet(report) == []


def test_report_config_and_curve(report):
    assert report["config"]["curve"] == list(DEFAULT_CURVE) == [1, 2, 4, 8]
    assert report["config"]["apps"] == DEFAULT_APPS == 48
    assert [point["cvms"] for point in report["scaling"]] == [1, 2, 4, 8]
    assert MIN_SPEEDUP == 1.5


def test_scaling_points_are_consistent(report):
    for point in report["scaling"]:
        assert point["syscalls"] > 0
        assert point["sim_ms"] > 0
        assert point["syscalls_per_sim_sec"] > 0
        assert sum(point["residents"].values()) == point["apps"]
    base = report["scaling"][0]
    assert base["speedup"] == 1.0
    for point in report["scaling"][1:]:
        assert point["speedup"] == pytest.approx(
            point["syscalls_per_sim_sec"] / base["syscalls_per_sim_sec"],
            abs=0.001,
        )


def test_digests_identical_across_pool_sizes(report):
    digests = {point["fleet_digest"] for point in report["scaling"]}
    assert len(digests) == 1


def test_sweep_point_is_deterministic():
    first = bench_pool_size(2, apps=6, rounds=2)
    second = bench_pool_size(2, apps=6, rounds=2)
    assert first == second


def test_isolation_probe_scopes_the_blast_radius(report):
    isolation = report["isolation"]
    assert isolation["isolated"]
    assert isolation["failed"] == isolation["victim_residents"]
    assert isolation["survived"] == (
        isolation["apps"] - isolation["victim_residents"]
    )
    assert isolation["corrupt"] == 0


def test_report_round_trips_through_json(report):
    assert json.loads(json.dumps(report)) == report


def test_gate_catches_digest_divergence(report):
    broken = json.loads(json.dumps(report))
    broken["scaling"][-1]["fleet_digest"] ^= 0xFFFF
    failures = check_fleet(broken)
    assert any("digests diverge" in failure for failure in failures)


def test_gate_catches_non_monotone_curve(report):
    broken = json.loads(json.dumps(report))
    broken["scaling"][-1]["syscalls_per_sim_sec"] = 1.0
    failures = check_fleet(broken)
    assert any("not monotone" in failure for failure in failures)


def test_gate_catches_scaling_floor_miss(report):
    broken = json.loads(json.dumps(report))
    broken["scaling"][2]["speedup"] = 1.49
    assert check_fleet(broken) == [
        "4-CVM speedup 1.49x below the 1.50x floor"
    ]
    broken["scaling"][2]["speedup"] = MIN_SPEEDUP
    assert check_fleet(broken) == []


def test_gate_catches_isolation_failure(report):
    broken = json.loads(json.dumps(report))
    broken["isolation"]["isolated"] = False
    failures = check_fleet(broken)
    assert any("crash isolation failed" in failure
               for failure in failures)


def test_probe_reports_a_real_victim():
    probe = crash_isolation_probe(apps=8)
    assert probe["victim"].startswith("cvm")
    assert probe["victim_residents"] >= 1
    assert probe["isolated"]
