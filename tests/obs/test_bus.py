"""TraceBus: spans, events, captures, and clock neutrality."""

import pytest

from repro.clock import SimClock
from repro.obs.bus import NULL_SPAN, TraceBus, maybe_span
from repro.obs.runner import run_traced


class TestSpans:
    def test_span_captures_simulated_window(self):
        clock = SimClock()
        bus = TraceBus.install(clock)
        with bus.capture() as capture:
            with bus.span("syscall", "write", kernel="host") as span:
                clock.advance(500, "work")
                span.set(disposition="native")
        (record,) = capture.spans()
        assert record["begin_ns"] == 0
        assert record["end_ns"] == 500
        assert record["args"]["disposition"] == "native"
        assert record["kernel"] == "host"

    def test_span_records_exception(self):
        clock = SimClock()
        bus = TraceBus.install(clock)
        with bus.capture() as capture:
            try:
                with bus.span("syscall", "open"):
                    raise ValueError("boom")
            except ValueError:
                pass
        (record,) = capture.spans()
        assert record["args"]["error"] == "ValueError"

    def test_event_is_instantaneous(self):
        clock = SimClock()
        clock.advance(42)
        bus = TraceBus.install(clock)
        with bus.capture() as capture:
            bus.event("irq", "irq:test", kernel="hypervisor")
        (record,) = capture.events("irq")
        assert record["ts_ns"] == 42

    def test_task_fields_recorded(self, anception_world, enrolled_ctx):
        bus = TraceBus.install(anception_world.clock)
        with bus.capture() as capture:
            enrolled_ctx.libc.getpid()
        span = capture.spans("syscall")[0]
        assert span["pid"] == enrolled_ctx.task.pid
        assert span["uid"] == enrolled_ctx.task.credentials.uid
        assert span["re"] == 1
        assert span["sclass"] == "host"


class TestDisabled:
    def test_disabled_bus_hands_out_null_span(self):
        clock = SimClock()
        bus = TraceBus.install(clock)
        assert bus.span("syscall", "write") is NULL_SPAN
        assert maybe_span(clock, "syscall", "write") is NULL_SPAN

    def test_no_bus_at_all(self):
        clock = SimClock()
        assert maybe_span(clock, "syscall", "write") is NULL_SPAN

    def test_disabled_bus_records_nothing(self):
        clock = SimClock()
        bus = TraceBus.install(clock)
        with bus.span("syscall", "write"):
            clock.advance(10)
        bus.event("irq", "x")
        assert bus.records == []

    def test_install_is_idempotent(self):
        clock = SimClock()
        assert TraceBus.install(clock) is TraceBus.install(clock)


class TestCaptureNesting:
    def test_inner_capture_sees_only_its_window(self):
        clock = SimClock()
        bus = TraceBus.install(clock)
        with bus.capture() as outer:
            bus.event("irq", "before")
            with bus.capture() as inner:
                bus.event("irq", "inside")
            bus.event("irq", "after")
        assert [r["name"] for r in inner.events()] == ["inside"]
        assert [r["name"] for r in outer.events()] == [
            "before", "inside", "after",
        ]

    def test_records_freed_after_last_capture(self):
        clock = SimClock()
        bus = TraceBus.install(clock)
        with bus.capture():
            bus.event("irq", "x")
        assert bus.records == []
        assert not bus.enabled


class TestClockNeutrality:
    """Observability is side-effect-free on simulated time."""

    def test_traced_run_has_identical_elapsed_time(self):
        traced = run_traced("write4k")
        untraced = run_traced("write4k", observe=False)
        assert traced.elapsed_ns == untraced.elapsed_ns
        assert untraced.records == []

    def test_capture_itself_advances_nothing(self):
        clock = SimClock()
        bus = TraceBus.install(clock)
        with bus.capture():
            with bus.span("syscall", "noop"):
                pass
            bus.event("irq", "noop")
        assert clock.now_ns == 0

    @pytest.mark.parametrize("workload", ["table1", "fileops"])
    def test_traced_run_leaves_the_host_log_as_a_dormant_run(self,
                                                            workload):
        def entries(observe):
            world = run_traced(workload, observe=observe).world
            return list(world.machine.kernel.log_device.entries)

        assert entries(True) == entries(False)
