"""E1 (binder extension) — batched binder windows vs per-call redirection.

Batching must not change what the app observes — ``replies_match``
proves the closing reply-carrying call agrees with the sync world —
and must pay off twice over: the binderburst wall-clock must beat
per-call redirection by at least 2x, and the doorbell bill (IRQs +
hypercalls per 1000 transactions) must fall to at most 1/8 of the
sync figure.  The Table I binder pins live in test_e1_table1_micro.py
and run against the default (ring-off) configuration, unmodified.
"""

import pytest

from repro.perf.micro import run_binder_bench


@pytest.fixture(scope="module")
def binder():
    return run_binder_bench()


def test_binder_bench_regenerates(benchmark, capsys):
    result = benchmark.pedantic(run_binder_bench, rounds=1, iterations=1)
    for key in ("sync_ms", "batched_ms", "speedup", "sync_txns_per_sec",
                "batched_txns_per_sec", "doorbells_per_1000_sync",
                "doorbells_per_1000_batched", "doorbell_ratio"):
        benchmark.extra_info[key] = result[key]
    with capsys.disabled():
        print()
        print(
            f"binder: sync={result['sync_ms']}ms "
            f"batched={result['batched_ms']}ms ({result['speedup']}x, "
            f"doorbells/1000 {result['doorbells_per_1000_sync']} -> "
            f"{result['doorbells_per_1000_batched']})"
        )


def test_burst_speedup_at_least_two_x(binder):
    assert binder["speedup"] >= 2.0


def test_doorbells_coalesce_to_an_eighth(binder):
    assert binder["doorbell_ratio"] <= 0.125


def test_replies_identical(binder):
    assert binder["replies_match"] is True


def test_batched_throughput_beats_sync(binder):
    assert binder["batched_txns_per_sec"] > binder["sync_txns_per_sec"]


def test_every_staged_transaction_was_flagged(binder):
    assert binder["binder_enqueued"] == binder["binder_pushed"]
    assert binder["binder_pending"] == 0
    assert binder["binder_deferred_errors"] == 0
