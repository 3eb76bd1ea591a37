#!/usr/bin/env python
"""Quick engine perf snapshot, written to ``BENCH_engine.json``.

Standalone (no pytest) so CI and future PRs can diff keyed timings:

    python benchmarks/run_quick.py

Keys: a 500k-row
group-by, the obs on/off prune-heavy workload, a filter -> with_column
-> select expression pipeline, incremental streaming maintenance (delta
aggregates + in-place grid-tensor updates) vs full recomputation at
three backlog sizes, the Figure 8 tensor-preparation leg, and a small
training epoch measuring the cost of the obs layer + dormant profiler
hooks on the model stack.
"""

from __future__ import annotations

import os
import sys
import time

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if os.path.join(_REPO_ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(_REPO_ROOT, "src"))

import numpy as np  # noqa: E402

from repro import obs  # noqa: E402
from repro.engine import Session, agg, col, udf  # noqa: E402


def bench_groupby(n: int = 500_000, groups: int = 256) -> dict:
    rng = np.random.default_rng(5)
    session = Session(default_parallelism=8)
    df = session.create_dataframe(
        {
            "k": rng.integers(0, groups, n).astype(np.int64),
            "v": rng.uniform(0, 1, n),
        }
    )
    started = time.perf_counter()
    rows = (
        df.group_by("k")
        .agg(agg.sum_("v", "s"), agg.count(name="n"), agg.max_("v", "hi"))
        .collect()
    )
    elapsed = time.perf_counter() - started
    assert len(rows) == groups
    return {"groupby_rows": n, "groupby_s": elapsed}


def prune_heavy_frame(session: Session, n: int = 200_000):
    """A wide frame plus an expensive unused UDF column: column
    pruning should skip both the extra columns and the UDF."""
    rng = np.random.default_rng(9)
    data = {f"w{i}": rng.uniform(0, 1, n) for i in range(10)}
    data["k"] = rng.integers(0, 64, n).astype(np.int64)
    data["v"] = rng.uniform(0, 1, n)
    df = session.create_dataframe(data)

    def expensive(arr):
        out = arr
        for _ in range(8):
            out = np.sin(out) + np.cos(out)
        return out

    return (
        df.with_column("heavy", udf(expensive, ["w0"], name="expensive"))
        .filter(col("v") > 0.25)
        .select("k", "v")
    )


def bench_observability() -> dict:
    """Cost of on-by-default instrumentation on a group-by over the
    prune-heavy frame (narrow stage + wide operator): the same count()
    with the obs layer enabled vs disabled.  The acceptance bar is
    < 10% overhead (instrumentation is per partition, never per row,
    so it should be far under)."""
    session = Session(default_parallelism=4)
    grouped = (
        prune_heavy_frame(session).group_by("k").agg(agg.sum_("v", "s"))
    )

    grouped.count()  # warm both paths once
    with obs.disabled():
        grouped.count()

    # Best-of-N with the two paths interleaved: the count is a
    # few ms, so separate measurement loops would let clock drift /
    # turbo state masquerade as instrumentation overhead.
    repeats = 9
    obs_on_s = obs_off_s = float("inf")
    rows_on = rows_off = None
    for _ in range(repeats):
        started = time.perf_counter()
        rows_on = grouped.count()
        obs_on_s = min(obs_on_s, time.perf_counter() - started)
        with obs.disabled():
            started = time.perf_counter()
            rows_off = grouped.count()
            obs_off_s = min(obs_off_s, time.perf_counter() - started)

    assert rows_on == rows_off
    return {
        "obs_on_s": obs_on_s,
        "obs_off_s": obs_off_s,
        "obs_overhead_ratio": obs_on_s / obs_off_s,
    }


def bench_train_overhead() -> dict:
    """Cost of the instrumentation riding on the training stack.

    Two ratios over one small conv-model epoch, interleaved best-of-N
    like :func:`bench_observability`:

    - ``train_obs_overhead_ratio``: obs on (dataloader metering, op
      span fast-path checks, trainer histograms) vs ``obs.disabled()``.
      This is the profiler-*disabled* overhead bar (< 5%).
    - ``train_profiler_overhead_ratio``: a recording profiler attached
      for every step vs no profiler — the opt-in cost of attribution.
    """
    from repro import nn
    from repro.core.training import Trainer, classification_batch
    from repro.data import DataLoader
    from repro.obs.profiler import Profiler
    from repro.optim import Adam

    rng = np.random.default_rng(11)
    images = rng.normal(size=(96, 2, 16, 16)).astype(np.float32)
    labels = rng.integers(0, 4, 96)
    loader = DataLoader(
        list(zip(images, labels)), batch_size=16, shuffle=False
    )

    def make_trainer() -> Trainer:
        model = nn.Sequential(
            nn.Conv2d(2, 8, 3, padding=1, rng=0),
            nn.ReLU(),
            nn.MaxPool2d(2),
            nn.Conv2d(8, 8, 3, padding=1, rng=1),
            nn.ReLU(),
            nn.GlobalAvgPool2d(),
            nn.Linear(8, 4, rng=2),
        )
        return Trainer(
            model,
            Adam(model.parameters(), lr=1e-3),
            nn.CrossEntropyLoss(),
            classification_batch,
        )

    trainer = make_trainer()
    trainer.train_epoch(loader)  # warm caches / allocator
    repeats = 5
    on_s = off_s = prof_s = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        trainer.train_epoch(loader)
        on_s = min(on_s, time.perf_counter() - started)
        with obs.disabled():
            started = time.perf_counter()
            trainer.train_epoch(loader)
            off_s = min(off_s, time.perf_counter() - started)
        profiler = Profiler(trainer.model)
        profiler.start()
        try:
            started = time.perf_counter()
            trainer.train_epoch(loader, profiler=profiler)
            prof_s = min(prof_s, time.perf_counter() - started)
        finally:
            profiler.stop()
    return {
        "train_obs_on_s": on_s,
        "train_obs_off_s": off_s,
        "train_obs_overhead_ratio": on_s / off_s,
        "train_profiler_on_s": prof_s,
        "train_profiler_overhead_ratio": prof_s / on_s,
    }


def bench_convlstm_runtime() -> dict:
    """The memory-aware training runtime on the paper's ConvLSTM.

    One small ConvLSTM epoch with ``backward(free_graph=True)`` (the
    ``Trainer`` default) against the same model with retained graphs.
    The two runs must end with bit-identical parameters — graph
    freeing is a pure memory change.

    Keys (gated by scripts/diff_bench.py):

    - ``epoch_time_convlstm_s`` — epoch wall time (best of 7).
    - ``peak_activation_bytes`` — tracemalloc peak over one epoch;
      graph freeing releases every intermediate during the backward
      walk, so this sits far below the retained-graph peak (also
      recorded, as ``peak_activation_bytes_retained``).
    """
    import tracemalloc

    from repro.nn import functional as F
    from repro.nn.recurrent import ConvLSTM
    from repro.optim import Adam
    from repro.tensor import Tensor
    from repro.tensor.pool import default_pool

    rng = np.random.default_rng(13)
    frames = [
        (
            Tensor(rng.normal(size=(4, 8, 2, 16, 16)).astype(np.float32)),
            Tensor(rng.normal(size=(4, 8, 4, 16, 16)).astype(np.float32)),
        )
        for _ in range(4)
    ]

    def make():
        model = ConvLSTM(2, [4], 3, rng=np.random.default_rng(0))
        return model, Adam(list(model.parameters()), lr=1e-3)

    def epoch(model, opt, free_graph: bool) -> None:
        for x, y in frames:
            opt.zero_grad()
            loss = F.mse_loss(model(x), y)
            loss.backward(free_graph=free_graph)
            opt.step()

    # Bit-identity first (also serves as warmup).
    model, opt = make()
    retained_model, retained_opt = make()
    epoch(model, opt, free_graph=True)
    epoch(retained_model, retained_opt, free_graph=False)
    for a, b in zip(model.parameters(), retained_model.parameters()):
        assert np.array_equal(a.data, b.data), (
            "graph-freeing ConvLSTM epoch diverged from the retained-graph one"
        )

    # Best-of-N: an epoch is ~25ms, so scheduler jitter shows up
    # unless the min has enough draws.
    epoch(model, opt, free_graph=True)  # second warmup: pool hot
    epoch_s = float("inf")
    for _ in range(7):
        started = time.perf_counter()
        epoch(model, opt, free_graph=True)
        epoch_s = min(epoch_s, time.perf_counter() - started)

    # Peak traced bytes over one epoch (numpy buffers register with
    # tracemalloc).  Separate pass: tracing slows the epoch, so it
    # must not share the timing runs above.
    peaks = {}
    for key, (traced_model, traced_opt, free) in {
        "peak_activation_bytes": (model, opt, True),
        "peak_activation_bytes_retained": (retained_model, retained_opt, False),
    }.items():
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            epoch(traced_model, traced_opt, free)
            peaks[key] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return {
        "epoch_time_convlstm_s": epoch_s,
        **peaks,
        "tensor_pool": default_pool().stats(),
    }


def bench_expr_pipeline(n: int = 400_000, parts: int = 8) -> dict:
    """A Filter -> WithColumn -> WithColumn -> Project chain, best of 7."""
    rng = np.random.default_rng(17)
    data = {
        "a": rng.integers(0, 1_000, n).astype(np.int64),
        "b": rng.uniform(-1, 1, n),
        "c": rng.uniform(0, 10, n),
    }

    def pipeline(session: Session):
        df = session.create_dataframe(data, num_partitions=parts)
        return (
            df.filter((col("b") > -0.5) & (col("a") % 7 != 0))
            .with_column("x", col("b") * col("c") + col("a"))
            .with_column("y", col("x") * 0.5 - col("c"))
            .select("a", "x", "y")
        )

    df = pipeline(Session(default_parallelism=parts))
    df.to_columns()  # warmup

    def drain() -> float:
        started = time.perf_counter()
        for _ in df.iter_partitions():
            pass
        return time.perf_counter() - started

    with obs.disabled():  # measure the engine, not the metering
        best_s = min(drain() for _ in range(7))

    return {
        "expr_pipeline_rows": n,
        "expr_pipeline_s": best_s,
    }


def bench_streaming(batch_rows: int = 2_000) -> dict:
    """Incremental streaming maintenance vs full recomputation.

    One retained stream with a delta-maintained ``(time_step, cell_id)``
    aggregation feeding an in-place ST grid tensor.  At three backlog
    sizes the stage times (a) an *incremental update* — append one
    micro-batch and scatter its delta into the live tensor via
    ``STManager.update_st_grid_array`` — against (b) a *full
    recompute* — batch group-by over the whole retained history plus a
    from-scratch ``get_st_grid_array`` rebuild.  The rebuilt tensor is
    asserted bit-identical to the incrementally maintained one every
    time, so the speedup is never bought with drift.

    Keys (gated by scripts/diff_bench.py):

    - ``stream_update_speedup`` — full recompute over incremental
      update wall time at the largest backlog; lower is worse, and the
      absolute floor is 10x (the incremental path is O(batch) while
      the recompute is O(history), so the ratio must keep growing with
      backlog).
    - ``stream_update_p99_ms`` — p99 incremental update latency
      (append + delta scatter) over the timed appends at the largest
      backlog; higher is worse.

    ``stream_curve`` records the full backlog -> (incremental,
    recompute, speedup) curve for docs/PERFORMANCE.md.
    """
    from repro.core.preprocessing.grid import STManager as stm

    rng = np.random.default_rng(31)
    px, py = 16, 12
    channels = ["count", "mean_v"]
    backlogs = (20_000, 60_000, 180_000)

    def make_batch() -> dict:
        return {
            "time_step": rng.integers(0, 48, batch_rows).astype(np.int64),
            "cell_id": rng.integers(0, px * py, batch_rows).astype(np.int64),
            "v": rng.uniform(0, 10, batch_rows),
        }

    session = Session()
    stream = session.stream(
        [
            ("time_step", np.int64),
            ("cell_id", np.int64),
            ("v", np.float64),
        ]
    )
    live = stream.aggregate(
        ["time_step", "cell_id"],
        [agg.count(name="count"), agg.mean("v")],
    )
    tensor = np.zeros((1, py, px, len(channels)), dtype=np.float32)

    def incremental_append() -> float:
        nonlocal tensor
        batch = make_batch()
        started = time.perf_counter()
        stream.append(batch)
        tensor = stm.update_st_grid_array(
            tensor, live.delta(), px, py, value_columns=channels
        )
        return time.perf_counter() - started

    curve = []
    for backlog in backlogs:
        while stream.rows_ingested < backlog:
            incremental_append()
        incremental = [incremental_append() for _ in range(15)]
        recompute_s = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            rebuilt = stm.get_st_grid_array(
                live.recompute_dataframe(),
                px,
                py,
                num_steps=tensor.shape[0],
                value_columns=channels,
            )
            recompute_s = min(recompute_s, time.perf_counter() - started)
            assert np.array_equal(tensor, rebuilt), (
                "incrementally maintained grid tensor diverged from the "
                "full rebuild"
            )
            stm.release_st_grid_array(rebuilt)
        curve.append(
            {
                "backlog_rows": stream.rows_ingested,
                "incremental_update_s": min(incremental),
                "incremental_update_p99_s": float(
                    np.percentile(incremental, 99)
                ),
                "full_recompute_s": recompute_s,
                "speedup": recompute_s / min(incremental),
            }
        )

    largest = curve[-1]
    return {
        "stream_batch_rows": batch_rows,
        "stream_curve": curve,
        "stream_update_speedup": largest["speedup"],
        "stream_update_p99_ms": largest["incremental_update_p99_s"] * 1e3,
        "stream_recompute_s": largest["full_recompute_s"],
    }


def bench_fig8_leg(n: int = 50_000) -> dict:
    from repro.experiments.fig8 import make_records, run_engine_prep

    result = run_engine_prep(make_records(n))
    return {
        "fig8_records": n,
        "fig8_tensor_prep_s": result["seconds"],
        "fig8_peak_bytes": result["peak_bytes"],
    }


def main() -> dict:
    obs.reset()  # per-operator breakdown covers exactly this run
    results: dict = {}
    stages = (
        bench_groupby,
        bench_observability,
        bench_train_overhead,
        bench_convlstm_runtime,
        bench_expr_pipeline,
        bench_streaming,
        bench_fig8_leg,
    )
    for stage in stages:
        results.update(stage())
    # Per-operator attribution of the run above (rows, partitions,
    # seconds, peak partition bytes per physical operator), from the
    # process-wide metrics registry.
    results["operators"] = obs.export.operator_breakdown()
    path = os.path.join(_REPO_ROOT, "BENCH_engine.json")
    # Atomic write: an interrupted run never leaves a truncated JSON
    # for scripts/check.sh to diff against.
    obs.export.atomic_write_json(path, results)
    for key in sorted(results):
        if key == "operators":
            continue
        print(f"{key}: {results[key]}")
    print("per-operator breakdown:")
    for op, fields in results["operators"].items():
        print(f"  {op}: {fields}")
    print(f"\nwrote {path}")
    return results


if __name__ == "__main__":
    main()
