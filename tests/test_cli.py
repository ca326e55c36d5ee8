"""The ``anception`` CLI."""

from dataclasses import replace

import pytest

from repro.cli import COMMANDS, main
from repro.core.config import FAST
from repro.obs.runner import boot_obs_world
from repro.world import AnceptionWorld, NativeWorld, _World


class TestCli:
    def test_unknown_command_exits(self, capsys):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_attack_surface_command(self, capsys):
        assert main(["attack-surface"]) == 0
        out = capsys.readouterr().out
        assert '"total_syscalls": 324' in out

    def test_loc_command(self, capsys):
        assert main(["loc"]) == 0
        assert "181260" in capsys.readouterr().out.replace(",", "")

    def test_tcb_command(self, capsys):
        assert main(["tcb"]) == 0
        assert "5219" in capsys.readouterr().out

    def test_table1_command(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "getpid" in out
        assert "384" in out

    def test_sqlite_command(self, capsys):
        assert main(["sqlite"]) == 0
        assert "86" in capsys.readouterr().out

    def test_all_known_commands_registered(self):
        assert set(COMMANDS) == {
            "table1", "antutu", "sunspider", "sqlite", "memory",
            "vuln-study", "attack-surface", "loc", "tcb", "profiledroid",
            "interactive", "alternatives", "trace", "metrics", "chaos",
            "report", "snapshot", "resume",
        }

    def test_trace_command_chrome(self, capsys):
        assert main(["trace", "write4k", "--format", "chrome"]) == 0
        out = capsys.readouterr().out
        assert '"traceEvents"' in out
        assert '"trace_id"' in out
        assert "world-switch" in out

    def test_trace_command_ftrace(self, capsys):
        assert main(["trace", "getpid", "--format", "ftrace"]) == 0
        out = capsys.readouterr().out
        assert "# tracer: anception-obs" in out
        assert "syscall: getpid" in out

    def test_trace_command_writes_file(self, capsys, tmp_path):
        target = tmp_path / "trace.json"
        assert main(["trace", "write4k", "--out", str(target)]) == 0
        assert "wrote" in capsys.readouterr().out
        import json

        data = json.loads(target.read_text())
        assert data["otherData"]["workload"] == "write4k"

    def test_metrics_command(self, capsys):
        assert main(["metrics", "write4k"]) == 0
        import json

        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["workload"] == "write4k"
        assert "syscalls_total" in snapshot["metrics"]["counters"]

    def test_trace_prints_wall_clock_summary(self, capsys):
        assert main(["trace", "getpid", "--format", "ftrace"]) == 0
        err = capsys.readouterr().err
        assert err.startswith("wall-clock: host_ms=")
        assert "sim/host=" in err

    def test_trace_prints_one_counter_line_per_lane(self, capsys):
        argv = ["trace", "fileops", "--cvms", "2", "--format", "ftrace"]
        assert main(argv) == 0
        lines = capsys.readouterr().err.splitlines()[1:]
        assert [line.split(":")[0] for line in lines] \
            == ["host", "cvm", "cvm1", "layer"]
        assert "syscalls[redirect,anception]=25" in lines[0].split()
        assert main(argv) == 0
        assert capsys.readouterr().err.splitlines()[1:] == lines

    def test_report_command_deterministic(self, capsys, tmp_path):
        trace_path = tmp_path / "t.json"
        assert main(["trace", "write4k", "--out", str(trace_path)]) == 0
        capsys.readouterr()
        assert main(["report", str(trace_path)]) == 0
        first = capsys.readouterr().out
        assert main(["report", str(trace_path)]) == 0
        second = capsys.readouterr().out
        assert first == second
        import json

        report = json.loads(first)
        assert report["workload"] == "write4k"
        assert report["critical_path"]["syscalls"] > 0

    @pytest.mark.parametrize("argv", [
        ["chaos", "getpid", "--out"],
        ["chaos", "getpid", "--trace-out"],
        ["snapshot", "getpid", "--warmup", "0", "--out"],
    ])
    def test_unwritable_output_is_a_clean_error(self, tmp_path, argv):
        path = str(tmp_path / "missing-dir" / "out")
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, path])
        assert str(excinfo.value.code).startswith(
            f"anception: error: cannot write {path}: ")

    def test_report_command_missing_file_exits(self):
        with pytest.raises(SystemExit):
            main(["report", "/nonexistent/trace.json"])

    @pytest.mark.parametrize("flag, value", [
        ("--cvms", "-2"),
        ("--cvms", "0"),
        ("--ring-depth", "0"),
        ("--cache-pages", "0"),
        ("--write-behind-depth", "0"),
        ("--binder-ring-depth", "-1"),
        ("--cvms", "two"),
        ("--top", "0"),
        ("--top", "-3"),
        ("--warmup", "-1"),
    ])
    def test_out_of_range_numeric_flag_is_a_usage_error(self, capsys, flag,
                                                         value):
        with pytest.raises(SystemExit) as excinfo:
            main(["trace", "write4k", flag, value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith(
            f"anception: error: argument {flag}: "
        )

    def test_alternatives_command(self, capsys):
        assert main(["alternatives"]) == 0
        out = capsys.readouterr().out
        assert "ptrace" in out
        assert "shared-pages" in out


class TestSnapshotResume:
    NON_DEFAULT = ["--no-write-behind", "--ring-depth", "8",
                   "--cache-pages", "64", "--cvms", "2",
                   "--placement", "by-trust-class"]

    @staticmethod
    def _write(tmp_path, world, meta):
        path = tmp_path / "world.snap"
        path.write_bytes(world.snapshot(meta=meta))
        return str(path)

    def test_round_trip_under_non_default_config(self, capsys, tmp_path):
        path = str(tmp_path / "world.snap")
        assert main(["snapshot", "write4k", *self.NON_DEFAULT,
                     "--out", path]) == 0
        with open(path, "rb") as handle:
            restored = _World.restore(handle.read())
        assert restored.anception.config == replace(
            FAST, async_delegation=False, ring_depth=8, cache_pages=64,
            cvms=2, placement="by-trust-class")
        assert main(["resume", path, "--verify"]) == 0
        assert "verify: resume=boot digest" in capsys.readouterr().err

    def test_negative_warmup_is_refused_at_snapshot(self, tmp_path):
        path = str(tmp_path / "world.snap")
        with pytest.raises(SystemExit) as excinfo:
            main(["snapshot", "write4k", "--warmup", "-1", "--out", path])
        assert excinfo.value.code == 2
        assert not (tmp_path / "world.snap").exists()

    def test_stale_knob_meta_is_ignored(self, tmp_path):
        world, _ctx = boot_obs_world()
        path = self._write(tmp_path, world, {
            "workload": "write4k", "warmup": 0, "knobs": {"bogus": 1}})
        assert main(["resume", path, "--verify"]) == 0

    @pytest.mark.parametrize("meta, key", [
        ({"workload": "nope"}, "workload"),
        ({"workload": 5}, "workload"),
        ({"workload": "write4k", "warmup": "2"}, "warmup"),
        ({"workload": "write4k", "warmup": -1}, "warmup"),
        ({"workload": "write4k", "warmup": 1.0}, "warmup"),
        ({"workload": "write4k", "warmup": True}, "warmup"),
    ])
    def test_malformed_meta_is_a_clean_error(self, tmp_path, meta, key):
        world, _ctx = boot_obs_world()
        path = self._write(tmp_path, world, meta)
        with pytest.raises(SystemExit) as excinfo:
            main(["resume", path, "--verify"])
        assert str(excinfo.value.code).startswith(
            f"anception: error: snapshot meta {key} ")

    @pytest.mark.parametrize("workload, error", [
        ("fileops", "EEXIST (/data/data/com.obs.trace/chaos-dir)"),
        ("fleet", "com.fleet.app000 already installed"),
    ])
    def test_run_once_workload_is_a_clean_error(self, tmp_path, workload,
                                               error):
        expected = (f"anception: error: workload {workload} cannot run "
                    f"again on the same world: {error}")
        for warmup in ("2", "1"):
            path = str(tmp_path / f"warm{warmup}.snap")
            with pytest.raises(SystemExit) as excinfo:
                main(["snapshot", workload, "--warmup", warmup,
                      "--out", path])
            assert excinfo.value.code == expected
            assert not (tmp_path / f"warm{warmup}.snap").exists()
        cold = str(tmp_path / "cold.snap")
        assert main(["snapshot", workload, "--warmup", "0",
                     "--out", cold]) == 0
        assert main(["resume", cold, "--verify"]) == 0

    @pytest.mark.parametrize("make", [NativeWorld, AnceptionWorld])
    def test_world_without_a_launched_app_is_a_clean_error(self, tmp_path,
                                                          make):
        path = self._write(tmp_path, make(), {"workload": "write4k"})
        with pytest.raises(SystemExit) as excinfo:
            main(["resume", path, "--verify"])
        assert "holds no launched app" in str(excinfo.value.code)
