#!/usr/bin/env python
"""Compare two BENCH_engine.json files and fail on perf regressions.

Usage: python scripts/diff_bench.py BASELINE.json FRESH.json

Guards the headline health keys (scripts/check.sh runs this after
regenerating BENCH_engine.json):

- ``obs_overhead_ratio`` — cost of on-by-default instrumentation on
  the prune-heavy group-by; higher is worse.
- ``epoch_time_convlstm_s`` — ConvLSTM epoch wall time; higher is
  worse.
- ``peak_activation_bytes`` — tracemalloc peak of the graph-freeing
  ConvLSTM epoch; higher is worse.
- ``stream_update_speedup`` — full recompute (group-by over retained
  history + grid-tensor rebuild) over one incremental streaming
  update (append + delta scatter) at the largest backlog; lower is
  worse.  Also floored **absolutely** at 10x — the incremental path
  is O(batch) vs O(history) and must stay an order of magnitude ahead
  regardless of baseline drift.  The two times it divides are printed
  beside it: a change that speeds up both sides moves the ratio
  without either side having regressed.
- ``stream_update_p99_ms`` — p99 incremental update latency at the
  largest backlog; higher is worse.

A key regresses when it moves more than ``TOLERANCE`` (25%) in its bad
direction.  ``ABS_FLOORS`` keys additionally fail when the fresh value
falls below the absolute floor, baseline or no baseline.  Missing keys
in the baseline (older file layouts) are skipped with a note rather
than failed, so the gate stays usable across layout changes.
"""

from __future__ import annotations

import json
import sys

TOLERANCE = 0.25

#: key -> direction; "lower" means lower values are better.
WATCHED = {
    "obs_overhead_ratio": "lower",
    "epoch_time_convlstm_s": "lower",
    "peak_activation_bytes": "lower",
    "stream_update_speedup": "higher",
    "stream_update_p99_ms": "lower",
}

#: key -> hard floor on the *fresh* value, independent of baseline
#: drift — a ratcheting baseline must never launder an absolute bar.
ABS_FLOORS = {
    "stream_update_speedup": 10.0,
}


def _stream_times(results: dict) -> str:
    """The numerator and denominator of ``stream_update_speedup``."""
    largest = results["stream_curve"][-1]
    return (
        f"{largest['full_recompute_s']:.4f} s recompute / "
        f"{largest['incremental_update_s'] * 1e3:.3f} ms update"
    )


#: ratio key -> the times it divides, printed beside the ratio.
RATIO_TERMS = {
    "stream_update_speedup": _stream_times,
}


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__)
        return 2
    with open(argv[1]) as handle:
        baseline = json.load(handle)
    with open(argv[2]) as handle:
        fresh = json.load(handle)

    failures = []
    for key, floor in ABS_FLOORS.items():
        if key not in fresh:
            continue  # handled (or skipped) by the relative gate below
        value = float(fresh[key])
        if value < floor:
            failures.append(
                f"{key}: {value:.4f} below absolute floor {floor}"
            )
        else:
            print(f"diff_bench: {key}: fresh={value:.4f} >= floor {floor} ok")
    for key, direction in WATCHED.items():
        if key not in baseline:
            print(f"diff_bench: {key}: not in baseline, skipping")
            continue
        if key not in fresh:
            failures.append(f"{key}: missing from fresh results")
            continue
        old, new = float(baseline[key]), float(fresh[key])
        if direction == "lower":
            regressed = new > old * (1 + TOLERANCE)
        else:
            regressed = new < old * (1 - TOLERANCE)
        marker = "REGRESSED" if regressed else "ok"
        print(
            f"diff_bench: {key}: baseline={old:.4f} fresh={new:.4f} "
            f"({direction} is better) {marker}"
        )
        if key in RATIO_TERMS:
            terms = RATIO_TERMS[key]
            print(
                f"diff_bench:   baseline = {terms(baseline)}; "
                f"fresh = {terms(fresh)}"
            )
        if regressed:
            failures.append(
                f"{key}: {old:.4f} -> {new:.4f} (> {TOLERANCE:.0%} worse)"
            )

    if failures:
        print("diff_bench: FAIL")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print("diff_bench: no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
