"""``stream_ingest`` — closed loop, one producer: micro-batches appended
back-to-back to a delta-maintained (time step, cell) aggregation, each
followed by an in-place grid-tensor update.

Why: the same ``engine.aggregates`` group state as ``trip_prep`` but on
the incremental write path, so a batch group-by gain that costs
streaming (or the reverse) shows.  Event time advances over all 336
steps with +-1.5-step jitter (out of order), so state grows to
336 x 192 groups and append latency is measured as a function of state
size, not only of batch size.
"""

from __future__ import annotations

import time

import numpy as np

from harness import Workload, require
from repro.core.preprocessing.grid import STManager
from repro.engine import Session, agg
from trip_prep import GRID_X, GRID_Y, NUM_STEPS

APPENDS = 1000
BATCH_ROWS = 2000
WARM_APPENDS = 50
JITTER_STEPS = 1.5
CELLS = GRID_X * GRID_Y
CHANNELS = ["count", "mean_v"]
SCHEMA = [("time_step", np.int64), ("cell_id", np.int64), ("v", np.float64)]


def make_batches(rng, appends: int) -> dict:
    """(appends, BATCH_ROWS) column arrays; row ``k`` is micro-batch
    ``k``.  Event time sweeps the step axis once, jittered."""
    shape = (appends, BATCH_ROWS)
    centre = (np.arange(appends)[:, None] + rng.uniform(0, 1, shape)) * (
        NUM_STEPS / appends
    )
    jitter = rng.uniform(-JITTER_STEPS, JITTER_STEPS, shape)
    return {
        "time_step": np.clip(
            np.floor(centre + jitter), 0, NUM_STEPS - 1
        ).astype(np.int64),
        "cell_id": rng.integers(0, CELLS, shape).astype(np.int64),
        "v": rng.uniform(0, 10, shape),
    }


class Ingest:
    """One stream, its live aggregation and the grid tensor it feeds."""

    def __init__(self):
        self.stream = Session().stream(SCHEMA, retain=False)
        self.live = self.stream.aggregate(
            ["time_step", "cell_id"],
            [agg.count(name="count"), agg.mean("v", "mean_v")],
        )
        self.tensor = np.zeros(
            (NUM_STEPS, GRID_Y, GRID_X, len(CHANNELS)), dtype=np.float32
        )

    def update_grid(self, delta) -> None:
        self.tensor = STManager.update_st_grid_array(
            self.tensor, delta, GRID_X, GRID_Y,
            num_steps=NUM_STEPS, value_columns=CHANNELS,
        )


class StreamIngest(Workload):
    name = "stream_ingest"
    min_passes = 1  # one pass is APPENDS timed appends
    item_unit = "appends"

    def generate(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.appends = self.items_per_pass = self.scaled(APPENDS, floor=20)
        self.batches = make_batches(rng, self.appends)
        self.warm_batches = make_batches(rng, self.scaled(WARM_APPENDS, floor=5))
        key = (self.batches["time_step"] * CELLS + self.batches["cell_id"]).ravel()
        size = NUM_STEPS * CELLS
        counts = np.bincount(key, minlength=size)
        sums = np.bincount(key, weights=self.batches["v"].ravel(), minlength=size)
        shape = (NUM_STEPS, GRID_Y, GRID_X)
        self.expected_count = counts.reshape(shape).astype(np.float32)
        self.expected_mean = (sums / np.maximum(counts, 1)).reshape(shape)

    @staticmethod
    def _batch(batches: dict, k: int) -> dict:
        return {name: column[k] for name, column in batches.items()}

    def _ingest(self, batches: dict) -> dict:
        ingest = Ingest()
        appends = len(batches["v"])
        latency = np.full(appends, np.nan)
        failed = 0
        for k in range(appends):
            batch = self._batch(batches, k)
            started = time.perf_counter()
            try:
                ingest.stream.append(batch)
                ingest.update_grid(ingest.live.delta())
                latency[k] = time.perf_counter() - started
            except Exception:
                failed += 1
        return {
            "tensor": ingest.tensor,
            "latency": latency[~np.isnan(latency)],
            "ops": appends,
            "ops_failed": failed,
        }

    def warm_up(self) -> dict:
        result = self._ingest(self.warm_batches)
        result["warm"] = True
        return result

    def run_pass(self) -> dict:
        result = self._ingest(self.batches)
        latency_ms = result["latency"] * 1e3
        quarter = len(latency_ms) // 4
        result["legs"] = {
            "append_p50_ms": float(np.percentile(latency_ms, 50)),
            "append_p99_ms": float(np.percentile(latency_ms, 99)),
            "engine.stream.append_ms_q1": float(np.median(latency_ms[:quarter])),
            "engine.stream.append_ms_q4": float(np.median(latency_ms[-quarter:])),
        }
        return result

    def check(self, result: dict) -> None:
        require(result["ops_failed"] == 0, f"{result['ops_failed']} appends raised")
        if result.get("warm"):
            return  # throw-away stream over other batches: no oracle
        tensor = result["tensor"]
        require(
            np.array_equal(tensor[..., 0], self.expected_count),
            "streamed counts differ from one numpy bincount over all rows",
        )
        # Chan-merged float64 means cast to float32: within an ulp of
        # the one-shot sum/count.
        require(
            np.allclose(tensor[..., 1], self.expected_mean, rtol=1e-6, atol=0.0),
            "streamed means differ from the one-shot numpy mean",
        )

    def traced_pass(self, tr) -> dict:
        changed = 0
        with tr.span("stream_ingest.pass", "bench"):
            with tr.span("engine.stream.open", "engine.streaming"):
                ingest = Ingest()
            for k in range(self.appends):
                batch = self._batch(self.batches, k)
                with tr.span("engine.stream.append", "engine.streaming"):
                    stats = ingest.stream.append(batch)
                with tr.span("engine.stream.delta", "engine.streaming"):
                    delta = ingest.live.delta()
                with tr.span("grid.update", "core.preprocessing.grid"):
                    ingest.update_grid(delta)
                changed += stats["changed_groups"]
        return {
            "tensor": ingest.tensor,
            "ops": self.appends,
            "ops_failed": 0,
            "changed_groups": changed,
            "groups": ingest.live.num_groups,
        }

    def layer_metrics(self, ctx) -> dict:
        tr, counters = ctx.tr, ctx.traced_counters
        out = dict(ctx.legs)
        out.update(
            {
                "engine.stream.append_s": tr.total("engine.stream.append"),
                "engine.stream.delta_s": tr.total("engine.stream.delta"),
                "engine.stream.groups": ctx.traced_result["groups"],
                "engine.stream.changed_groups_per_append": ctx.traced_result[
                    "changed_groups"
                ]
                / self.appends,
                "grid.update_s": tr.total("grid.update"),
                "grid.cells_touched_per_update": counters["st.grid.cells_touched"]
                / counters["st.grid.updates"],
            }
        )
        return out
