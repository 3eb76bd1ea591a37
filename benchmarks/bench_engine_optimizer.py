"""Engine ablation: the logical-plan optimizer on vs off.

The workload is **prune-heavy** — a wide frame with an expensive unused
UDF column, narrowed to two columns; the optimizer's column pruning
should drop the UDF and the unused columns entirely.
"""

from __future__ import annotations

from repro.engine import Session

from run_quick import bench_optimizer, prune_heavy_frame


def test_optimizer_prune_heavy(benchmark, report):
    timings = benchmark.pedantic(bench_optimizer, rounds=1, iterations=1)
    on_s, off_s = timings["optimizer_on_s"], timings["optimizer_off_s"]
    report(
        "Engine optimizer: prune-heavy workload\n"
        "======================================\n"
        f"optimizer on:  {on_s:8.3f}s\n"
        f"optimizer off: {off_s:8.3f}s\n"
        f"speedup:       {off_s / on_s:8.1f}x"
    )
    assert on_s < off_s


def test_optimizer_does_not_change_results(report):
    on = prune_heavy_frame(
        Session(default_parallelism=4, optimize=True), n=20_000
    ).collect()
    off = prune_heavy_frame(
        Session(default_parallelism=4, optimize=False), n=20_000
    ).collect()
    assert on == off
    report(
        "Engine optimizer: result parity\n"
        "===============================\n"
        f"rows (both): {len(on)}"
    )
