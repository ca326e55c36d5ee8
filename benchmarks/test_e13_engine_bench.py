"""E13 — engine raw speed: the ``BENCH_engine.json`` harness.

Unlike every other benchmark here, this one measures *wall-clock*
throughput (simulated syscalls per real second), which is machine-
dependent by nature.  So these tests assert the report's *structure* and
its internal consistency — the schema, the three gated workloads, the
gate arithmetic — never absolute throughput.
The CI regression gate compares against a committed baseline separately
(``anception bench-engine``).
"""

import json

import pytest

from repro.perf.engine_bench import (
    DEFAULT_GATE_RATIO,
    ENGINE_WORKLOADS,
    SCHEMA,
    baseline_summary,
    bench_workload,
    check_regression,
    run_engine_bench,
)


@pytest.fixture(scope="module")
def report():
    # One fast pass: structure is identical at any inner/runs setting.
    return run_engine_bench(inner=1, runs=1)


def test_report_schema_and_workloads(benchmark, report):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert report["schema"] == SCHEMA
    assert set(report["workloads"]) == set(ENGINE_WORKLOADS)
    assert len(report["workloads"]) >= 3
    for workload, entry in report["workloads"].items():
        benchmark.extra_info[f"{workload}.syscalls_per_iter"] = (
            entry["syscalls_per_iter"]
        )


def test_workload_entries_are_consistent(report):
    for entry in report["workloads"].values():
        assert entry["syscalls_per_iter"] > 0
        assert entry["sim_us_per_iter"] > 0
        assert entry["syscalls_per_sec"] > 0
        assert entry["wall_ms"]["best"] <= entry["wall_ms"]["median"]
        assert entry["sim_time_ratio"] > 0


def test_report_round_trips_through_json(report):
    assert json.loads(json.dumps(report)) == report


def test_census_is_deterministic():
    first = bench_workload("writeburst", inner=1, runs=1)
    second = bench_workload("writeburst", inner=1, runs=1)
    assert first["syscalls_per_iter"] == second["syscalls_per_iter"]
    assert first["sim_us_per_iter"] == second["sim_us_per_iter"]


def test_gate_passes_against_own_baseline(report):
    baseline = baseline_summary(report)
    assert baseline["schema"] == SCHEMA
    assert check_regression(report, baseline) == []


def test_gate_catches_regression(report):
    baseline = baseline_summary(report)
    inflated = {
        "schema": SCHEMA,
        "workloads": {
            workload: {
                "syscalls_per_sec": entry["syscalls_per_sec"] * 10
            }
            for workload, entry in baseline["workloads"].items()
        },
    }
    failures = check_regression(report, inflated,
                                min_ratio=DEFAULT_GATE_RATIO)
    assert len(failures) == len(ENGINE_WORKLOADS)
    assert all("fell below" in failure for failure in failures)


def test_gate_flags_missing_workload(report):
    baseline = baseline_summary(report)
    baseline["workloads"]["vanished"] = {"syscalls_per_sec": 1.0}
    failures = check_regression(report, baseline)
    assert failures == ["vanished: missing from current report"]


def test_unknown_workload_rejected():
    with pytest.raises(ValueError, match="unknown workload"):
        bench_workload("nonesuch")


def test_cli_reports_throughput_and_digest_failures_together(
        report, tmp_path, monkeypatch):
    # A throughput failure must not hide digest drift (or vice versa):
    # the command reports both before it exits.
    from repro.cli import main

    monkeypatch.setenv("ANCEPTION_ENGINE_INNER", "1")
    monkeypatch.setenv("ANCEPTION_ENGINE_RUNS", "1")
    baseline = baseline_summary(report)
    for entry in baseline["workloads"].values():
        entry["syscalls_per_sec"] = 0  # no throughput gate: wall noise
    baseline["workloads"]["fileops"]["syscalls_per_sec"] = 1e12
    baseline["workloads"]["writeburst"]["sim_us_per_iter"] += 1
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps(baseline))
    with pytest.raises(SystemExit) as excinfo:
        main(["bench-engine", "--baseline", str(path),
              "--out", str(tmp_path / "BENCH_engine.json")])
    message = str(excinfo.value)
    assert "fileops:" in message and "fell below" in message
    assert "writeburst: sim_us_per_iter drifted" in message
    assert "batchio" not in message
    assert "profiler" not in json.loads(
        (tmp_path / "BENCH_engine.json").read_text()
    )["workloads"]["fileops"]
