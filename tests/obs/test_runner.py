"""The shared run path of ``run_traced`` and ``run_chaos``."""

import pytest

from repro.faults.chaos import run_chaos
from repro.obs.runner import TRACE_WORKLOADS, run_traced
from repro.world import AnceptionWorld


class TestResolveWorkload:
    @pytest.mark.parametrize("run", [run_traced, run_chaos])
    def test_unknown_name_lists_the_known_ones(self, run):
        with pytest.raises(ValueError) as excinfo:
            run("warp-drive")
        assert "unknown workload 'warp-drive'" in str(excinfo.value)
        assert ", ".join(sorted(TRACE_WORKLOADS)) in str(excinfo.value)

    def test_run_traced_takes_a_callable(self):
        def probe(ctx):
            ctx.libc.getpid()

        result = run_traced(probe)
        assert result.workload == "probe"
        assert [r["name"] for r in result.records
                if r["kind"] == "syscall"] == ["getpid"]


class TestWarmStart:
    @pytest.mark.parametrize("run", [run_traced, run_chaos])
    def test_app_workload_on_a_world_without_an_app(self, run):
        with pytest.raises(ValueError, match="no launched app"):
            run("getpid", world=AnceptionWorld())

    def test_world_workload_needs_no_app(self):
        result = run_traced("fleet", world=AnceptionWorld())
        assert result.elapsed_ns > 0
        assert result.metrics.counters()["syscalls_total"]
