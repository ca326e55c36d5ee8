"""The fault engine: triggers, determinism, per-layer effects."""

import errno
import random

import pytest

from repro.clock import SimClock
from repro.errors import SyscallError
from repro.faults.engine import FaultEngine, maybe_engine


def engine_on_clock(plan, seed=0):
    engine = FaultEngine(plan, seed=seed)
    engine.arm(SimClock())
    return engine


class TestAttachment:
    def test_maybe_engine_default_none(self):
        assert maybe_engine(SimClock()) is None

    def test_arm_and_disarm(self):
        clock = SimClock()
        engine = FaultEngine("irq.drop").arm(clock)
        assert maybe_engine(clock) is engine
        engine.disarm()
        assert maybe_engine(clock) is None

    def test_disarm_leaves_other_engine_alone(self):
        clock = SimClock()
        first = FaultEngine("irq.drop").arm(clock)
        second = FaultEngine("irq.dup").arm(clock)
        first.disarm()
        assert maybe_engine(clock) is second


class TestTriggers:
    def test_nth_fires_exactly_once(self):
        engine = engine_on_clock("irq.drop:nth=3")
        assert [engine.drop_irq() for _ in range(6)] == \
            [False, False, True, False, False, False]

    def test_every(self):
        engine = engine_on_clock("irq.drop:every=2")
        assert [engine.drop_irq() for _ in range(6)] == \
            [False, True, False, True, False, True]

    def test_after_shifts_warmup(self):
        engine = engine_on_clock("irq.drop:after=3")
        assert [engine.drop_irq() for _ in range(5)] == \
            [False, False, False, True, True]

    def test_times_caps_fires(self):
        engine = engine_on_clock("irq.drop:times=2")
        assert [engine.drop_irq() for _ in range(5)] == \
            [True, True, False, False, False]

    def test_always_fires(self):
        engine = engine_on_clock("irq.drop")
        assert all(engine.drop_irq() for _ in range(4))

    def test_probability_extremes(self):
        assert not any(
            engine_on_clock("irq.drop:p=0").drop_irq() for _ in range(20)
        )
        assert all(
            engine_on_clock("irq.drop:p=1").drop_irq() for _ in range(20)
        )

    def test_call_filter_gates_occurrences(self):
        engine = engine_on_clock("proxy.kill:nth=2:call=open")
        assert not engine.kill_proxy(call="read")
        assert not engine.kill_proxy(call="open")   # occurrence 1
        assert not engine.kill_proxy(call="read")
        assert engine.kill_proxy(call="open")       # occurrence 2
        assert not engine.kill_proxy(call="open")

    def test_first_matching_rule_wins(self):
        engine = engine_on_clock("irq.drop:nth=1;irq.drop:every=1")
        assert engine.drop_irq()
        assert len(engine.fired) == 1
        assert engine.fired[0]["rule"] == "irq.drop:nth=1"

    def test_shadowed_rule_counter_still_advances(self):
        # rule 2 counts occurrence 1 even though rule 1 fired on it
        engine = engine_on_clock("irq.drop:nth=1;irq.drop:nth=2")
        assert engine.drop_irq()
        assert engine.drop_irq()
        assert [record["rule"] for record in engine.fired] == \
            ["irq.drop:nth=1", "irq.drop:nth=2"]


class TestDeterminism:
    PLAN = "channel.corrupt:p=0.3;irq.drop:p=0.2"

    def drive(self, seed):
        engine = engine_on_clock(self.PLAN, seed=seed)
        outcomes = []
        for i in range(40):
            outcomes.append(engine.channel_delivery("to-guest", 9 + i))
            outcomes.append(engine.drop_irq())
        return outcomes, engine.report()

    def test_same_seed_identical(self):
        assert self.drive(7) == self.drive(7)

    def test_different_seed_diverges(self):
        assert self.drive(1)[0] != self.drive(2)[0]

    def test_report_is_json_stable(self):
        import json
        a = json.dumps(self.drive(7)[1], sort_keys=True)
        b = json.dumps(self.drive(7)[1], sort_keys=True)
        assert a == b


class TestEffects:
    def test_corrupt_flips_one_byte(self):
        # A corruption models one flipped byte: it draws one byte index
        # (keeping the PRNG stream, so later probability rules fire at
        # the same occurrences) and marks the whole delivery corrupt.
        engine = engine_on_clock("channel.corrupt:nth=1", seed=5)
        assert engine.channel_delivery("to-guest", 64) == (64, True)
        reference = random.Random(5)
        reference.randrange(64)
        assert engine.rng.getstate() == reference.getstate()
        assert engine.channel_delivery("to-guest", 64) == (64, False)

    def test_truncate_halves(self):
        engine = engine_on_clock("channel.truncate:nth=1")
        assert engine.channel_delivery("to-host", 64) == (32, False)

    def test_empty_payload_untouched_and_uncounted(self):
        engine = engine_on_clock("channel.corrupt:nth=1")
        assert engine.channel_delivery("to-guest", 0) == (0, False)
        assert engine.fired == []
        # nth=1 still pending: the next real payload gets it
        assert engine.channel_delivery("to-guest", 2) == (2, True)

    def test_ring_corrupt_marks_and_draws(self):
        engine = engine_on_clock("ring.corrupt:nth=2", seed=9)
        assert engine.ring_corrupt("write", 0) is False  # uncounted
        assert engine.ring_corrupt("write", 40) is False
        assert engine.ring_corrupt("write", 40) is True
        reference = random.Random(9)
        reference.randrange(40)
        assert engine.rng.getstate() == reference.getstate()

    def test_stall_duration(self):
        engine = engine_on_clock("channel.stall:nth=1:delay_us=500")
        assert engine.channel_stall_ns("to-guest") == 500_000
        assert engine.channel_stall_ns("to-guest") == 0

    def test_slow_boot_default(self):
        engine = engine_on_clock("cvm.slow-boot:nth=1")
        assert engine.slow_boot_ns() == 250_000_000

    def test_fired_log_records_context(self):
        engine = engine_on_clock("proxy.kill:nth=1:call=open")
        engine.kill_proxy(call="open")
        record = engine.fired[0]
        assert record["site"] == "proxy.kill"
        assert record["call"] == "open"
        assert record["occurrence"] == 1


class TestSyscallPerturbation:
    def test_injected_errno(self, anception_world, enrolled_ctx):
        engine = FaultEngine("syscall.error:nth=1:call=open:errno=ENOSPC")
        engine.arm(anception_world.clock)
        try:
            with pytest.raises(SyscallError) as exc:
                enrolled_ctx.libc.open(
                    enrolled_ctx.data_path("doomed"), 0o102
                )
            assert exc.value.errno == errno.ENOSPC
            # only the first open is perturbed
            fd = enrolled_ctx.libc.open(
                enrolled_ctx.data_path("doomed"), 0o102
            )
            enrolled_ctx.libc.close(fd)
        finally:
            engine.disarm()

    def test_injected_delay_advances_clock(self, anception_world,
                                           enrolled_ctx):
        engine = FaultEngine("syscall.delay:nth=1:delay_us=1000")
        engine.arm(anception_world.clock)
        try:
            with anception_world.clock.measure() as slow:
                enrolled_ctx.libc.getpid()
            with anception_world.clock.measure() as fast:
                enrolled_ctx.libc.getpid()
            assert slow.elapsed_ns - fast.elapsed_ns == 1_000_000
        finally:
            engine.disarm()
