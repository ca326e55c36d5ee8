"""Self-tests of the benchmark.

Run from the repository root::

    python3 -m pytest -q perfbench

The determinism tests run ``run.py`` as a subprocess with ``--seconds 0``
(the untraced pass then covers exactly the deterministic window) and
``--trace 1``, twice per workload with the same seed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, ReadMix  # noqa: E402

SEED = 7

with open(os.path.join(ROOT, "BENCHMARK.json")) as _manifest:
    MANIFEST = json.load(_manifest)
with open(os.path.join(HERE, "layers.json")) as _layer_map:
    LAYER_MAP = json.load(_layer_map)


def _timed(metric):
    """Per-layer metrics read off a clock rather than counted."""
    return (metric.endswith(".self_us_per_op") or metric.startswith("setup.")
            or metric in ("ledger.wall_unattributed_share",
                          "trace.overhead_x"))


def _bench(workload, trace, spans_dir, cwd=ROOT, script=None):
    return subprocess.run(
        [sys.executable, script or os.path.join(HERE, "run.py"),
         "--workload", workload, "--seed", str(SEED), "--seconds", "0",
         "--trace", str(trace), "--spans-dir", str(spans_dir)],
        capture_output=True, text=True, timeout=170, cwd=cwd)


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """Two ``--trace 1`` runs per workload: ``{name: [(report, result)]}``."""
    spans = tmp_path_factory.mktemp("spans")
    runs = {}
    for name in WORKLOADS:
        for _ in range(2):
            done = _bench(name, 1, spans)
            assert done.returncode == 0, done.stdout[-3000:] + done.stderr
            report, result = (json.loads(line)
                              for line in done.stdout.splitlines()[-2:])
            runs.setdefault(name, []).append((report, result))
    return runs


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_repeats_exactly(traced_runs, name):
    (first, first_result), (second, second_result) = traced_runs[name]
    assert first_result["correct"] and first_result["failed"] == 0
    heap = [report["window"].pop("heap_blocks") for report in (first,
                                                                second)]
    assert first["window"] == second["window"]
    # Allocator layout (addresses of id-hashed objects) moves the heap
    # block count by a fraction of a percent between processes.
    assert abs(heap[0] - heap[1]) <= 0.01 * abs(heap[0])
    sim = [report["end_to_end"]["sim_us_per_op"] for report in (first,
                                                                 second)]
    assert sim[0] == sim[1] == first["traced_sim_us_per_op"]
    assert first["ledger"] == second["ledger"]
    for metric, value in first_result["metrics"].items():
        if not _timed(metric):
            assert value == second_result["metrics"][metric], metric


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_ledger_reconciles(traced_runs, name):
    report, result = traced_runs[name][0]
    metrics = result["metrics"]
    assert metrics["ledger.sim_residual_ns"]["value"] == 0
    assert metrics["ledger.unmapped_sim_us_per_op"]["value"] == 0
    layer_sum = sum(value["value"] for metric, value in metrics.items()
                    if metric.endswith(".sim_us_per_op"))
    assert layer_sum == pytest.approx(report["end_to_end"]["sim_us_per_op"],
                                      rel=1e-9)
    assert metrics["kernel.host.calls_per_op"]["value"] == (
        report["window"]["syscalls"] / report["window"]["ops"])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_layer_metric_is_reported(traced_runs, name):
    report, result = traced_runs[name][0]
    assert report["missing_entries"] == []
    declared = {m["name"]: m["unit"] for m in MANIFEST["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    mapped = {f"{layer}.{metric}" for layer, entry in LAYER_MAP.items()
              for metric in entry["metrics"]}
    assert mapped == set(declared)


def test_manifest_names_every_workload_with_its_why():
    assert [(w["name"], w["why"]) for w in MANIFEST["workloads"]] == [
        (name, cls.why) for name, cls in WORKLOADS.items()]


def test_untraced_run_reports_end_to_end_metrics(tmp_path):
    done = _bench("read_mix", 0, tmp_path)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = {m["name"]: m["unit"] for m in MANIFEST["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())
    report = json.loads(done.stdout.splitlines()[-2])
    assert report["provenance"]["seed"] == SEED
    assert {"python", "nproc", "git_commit", "source_sha256"} \
        <= set(report["provenance"])
    assert report["samples"]["ops"] >= 1000


def test_wrappers_are_gone_after_a_traced_run():
    def entries():
        for module_name, class_name, attr, _layer in layers.ENTRIES:
            module = sys.modules.get(module_name) or __import__(
                module_name, fromlist=["_"])
            owner = module if class_name is None else getattr(module,
                                                              class_name)
            yield owner, attr
        from repro.clock import SimClock
        yield SimClock, "overlap"

    before = {(id(owner), attr): vars(owner).get(attr)
              for owner, attr in entries()}
    workload = WORKLOADS["paper_sync"](SEED)
    workload.boot()
    with layers.Tracer(workload.world):
        for owner, attr in entries():
            assert vars(owner)[attr] is not before[(id(owner), attr)]
    for owner, attr in entries():
        assert vars(owner).get(attr) is before[(id(owner), attr)]
    traced = run.run_traced(WORKLOADS["fleet_async"], SEED, window=8)
    assert traced["failures"].count == 0
    for owner, attr in entries():
        assert vars(owner).get(attr) is before[(id(owner), attr)]


def test_wrong_bytes_count_as_failed_ops():
    class Corrupted(ReadMix):
        def warm(self):
            super().warm()
            for content in self.model:
                content[:] = bytes(len(content))

    result = run.run_untraced(Corrupted, SEED, 0, window=40)
    assert result["failures"].count > 0
    assert "WrongResult" in result["failures"].shown[0]


def test_charge_labels_map_to_layers():
    guests = {"cvm", "cvm1"}
    spans = {10: "host", 20: "cvm1"}

    def layer(label, seq=0):
        return layers.layer_of_charge(label, spans, seq, "host", guests)

    assert layer("irq:write") == "hypervisor"
    assert layer("hypercall:write-behind") == "hypervisor"
    assert layer("channel:copy") == "core.channel"
    assert layer("anception:cache-hit") == "core.page_cache"
    assert layer("anception:wb-fence:fence") == "core.windows"
    assert layer("anception:binder-window") == "core.windows"
    assert layer("anception:binder-cvm") == "android.binder"
    assert layer("binder:location") == "android.binder"
    assert layer("cvm1:write") == "kernel.guest"
    assert layer("syscall:write", seq=11) == "kernel.host"
    assert layer("syscall:write", seq=21) == "kernel.guest"
    assert layer("syscall:write", seq=99) is None
    assert layer("a-new-reason") is None


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("paper_sync", 0, tmp_path, cwd=tmp_path,
                  script=str(tmp_path / "perfbench" / "run.py"))
    assert done.returncode != 0
    assert done.stdout.strip() == ""
