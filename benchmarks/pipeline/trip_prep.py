"""``trip_prep`` — Fig 8 + DFtoTorch: raw trip records to a grid tensor
and training batches.

Why: the paper's headline pipeline.  The engine's group-by and narrow
stages do nearly all the work; ``nn``/``tensor``/``geometry.index`` do
none, so an STR-tree or autograd change must not move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from harness import PROBE, Workload, require
from repro import obs
from repro.core.converter import (
    DFToTorchConverter,
    RowTransformer,
    SpatiotemporalSpec,
)
from repro.core.datasets.synth import generate_trip_records
from repro.core.preprocessing.grid import STManager
from repro.engine import Session
from repro.geometry.envelope import Envelope
from repro.geometry.grid import UniformGrid
from repro.utils.memory import MemoryMeter

NYC = Envelope(-74.05, -73.75, 40.6, 40.9)
GRID_X, GRID_Y = 12, 16
STEP_SECONDS = 1800.0
NUM_STEPS = 48 * 7
BATCH = 32
ROWS = 1_000_000
ROWS_PER_PARTITION = 50_000
# ``generate_trip_records`` draws its hotspot centres from its seed, and
# with them the share of trips inside the envelope (0.80-0.99) and the
# group count (21k-30k): the *shape* of the workload, which ``--seed``
# must not change.  So the centres come from one fixed seed (the layout
# the workload was sized on) and ``--seed`` draws which rows of that
# pool a run gets.
LAYOUT_SEED = 0
POOL_FACTOR = 1.25
# obs on/off is compared on this many rows (two partitions, so the
# same spans per row as the full pass), not on the full input.
OBS_PROBE_ROWS = 100_000
OBS_PROBE_PAIRS = 8

NARROW = ("CompiledStage", "Source", "Project", "Filter", "WithColumn", "Drop")


def sample_trips(rows: int, seed: int) -> dict:
    """``rows`` trip records chosen by ``seed``, without replacement,
    from a pool generated at ``LAYOUT_SEED``."""
    pool_rows = int(rows * POOL_FACTOR)
    pool = generate_trip_records(
        pool_rows, NYC, num_steps=NUM_STEPS,
        step_seconds=STEP_SECONDS, seed=LAYOUT_SEED,
    )
    pick = np.random.default_rng(seed).permutation(pool_rows)[:rows]
    return {name: column[pick] for name, column in pool.items()}


def trip_cells(records: dict) -> tuple:
    """Numpy reference for cell and step assignment: (cell id or -1,
    time step) per record, written out independently of
    ``UniformGrid``/``STManager``."""
    xs, ys = records["lon"], records["lat"]
    inside = (
        (xs >= NYC.min_x) & (xs <= NYC.max_x)
        & (ys >= NYC.min_y) & (ys <= NYC.max_y)
    )
    width = (NYC.max_x - NYC.min_x) / GRID_X
    height = (NYC.max_y - NYC.min_y) / GRID_Y
    i = np.clip(((xs - NYC.min_x) / width).astype(np.int64), 0, GRID_X - 1)
    j = np.clip(((ys - NYC.min_y) / height).astype(np.int64), 0, GRID_Y - 1)
    cells = np.where(inside, j * GRID_X + i, -1)
    steps = np.floor(records["pickup_time"] / STEP_SECONDS).astype(np.int64)
    return cells, steps


class TripPrep(Workload):
    name = "trip_prep"
    min_passes = 3

    def generate(self) -> None:
        self.rows = self.items_per_pass = self.scaled(ROWS)
        self.records = sample_trips(self.rows, self.seed)
        cells, steps = trip_cells(self.records)
        keep = (cells >= 0) & (steps >= 0) & (steps < NUM_STEPS)
        counts = np.bincount(
            steps[keep] * (GRID_X * GRID_Y) + cells[keep],
            minlength=NUM_STEPS * GRID_X * GRID_Y,
        )
        self.expected = counts.reshape(NUM_STEPS, GRID_Y, GRID_X).astype(
            np.float32
        )
        # The converter pairs consecutive *present* frames; the oracle
        # x[t]==tensor[t] needs every step populated.
        require(
            bool(self.expected.reshape(NUM_STEPS, -1).any(axis=1).all()),
            "generated trips leave a time step empty",
        )
        self.spec = SpatiotemporalSpec(GRID_X, GRID_Y, lead_time=1)

    # -- the pipeline as a user writes it --------------------------------
    @staticmethod
    def _session(records: dict, meter=None):
        parts = max(2, -(-len(records["lon"]) // ROWS_PER_PARTITION))
        return Session(default_parallelism=parts, meter=meter)

    @staticmethod
    def _st_dataframe(session, records: dict):
        df = session.create_dataframe(records)
        spatial = STManager.add_spatial_points(
            df, lat_column="lat", lon_column="lon", new_column_alias="point"
        )
        return STManager.get_st_grid_dataframe(
            spatial, geometry="point",
            partitions_x=GRID_X, partitions_y=GRID_Y,
            col_date="pickup_time", step_duration_sec=STEP_SECONDS,
            envelope=NYC, temporal_origin=0.0,
        )

    def _pipeline(self, records: dict) -> dict:
        st_df = self._st_dataframe(self._session(records), records)
        tensor = STManager.get_st_grid_array(
            st_df, GRID_X, GRID_Y, num_steps=NUM_STEPS
        )
        converter = DFToTorchConverter(self.spec)
        batches = []
        started = time.perf_counter()
        first_batch_s = None
        for batch in converter.convert(st_df, BATCH):
            if first_batch_s is None:
                first_batch_s = time.perf_counter() - started
            batches.append(batch)
        return {
            "tensor": tensor,
            "batches": batches,
            "legs": {"converter.first_batch_s": first_batch_s},
        }

    def run_pass(self) -> dict:
        return self._pipeline(self.records)

    def check(self, result: dict) -> None:
        tensor = result["tensor"]
        try:
            require(
                np.array_equal(tensor[..., 0], self.expected),
                "grid tensor differs from the numpy bincount",
            )
            frames = self.expected[:, None]  # (T, C=1, H, W)
            xs = np.concatenate([x.data for x, _ in result["batches"]])
            ys = np.concatenate([y.data for _, y in result["batches"]])
            require(
                len(result["batches"]) == -(-(NUM_STEPS - 1) // BATCH),
                f"expected 11 batches, got {len(result['batches'])}",
            )
            require(np.array_equal(xs, frames[:-1]), "x[t] != tensor[t]")
            require(np.array_equal(ys, frames[1:]), "y[t] != tensor[t+1]")
        finally:
            STManager.release_st_grid_array(tensor)

    # -- the same work, one layer at a time -------------------------------
    def traced_pass(self, tr) -> dict:
        meter = MemoryMeter()
        formatter = {"MapPartitions[df_formatter": "core.converter"}
        with tr.span("trip_prep.pass", "bench"):
            with tr.span("engine.plan_build", "engine"):
                session = self._session(self.records, meter)
                st_df = self._st_dataframe(session, self.records)
            drained = tr.materialise("engine.execute.grid", st_df)
            with tr.span("grid.fill", "core.preprocessing.grid"):
                tensor = STManager.get_st_grid_array(
                    drained, GRID_X, GRID_Y, num_steps=NUM_STEPS
                )
            converter = DFToTorchConverter(self.spec)
            with tr.span("converter.format.plan", "core.converter"):
                formatted = converter.format(st_df)
            frames = tr.materialise(
                "engine.execute.converter", formatted, formatter
            )
            with tr.span("converter.batch", "core.converter"):
                batches = list(RowTransformer(frames, BATCH, spec=self.spec))
        return {"tensor": tensor, "batches": batches, "meter": meter}

    def probes(self, tr) -> None:
        grid = UniformGrid(NYC, GRID_X, GRID_Y)
        with tr.span("geometry.cell_ids", "geometry"):
            grid.cell_ids_of_arrays(self.records["lon"], self.records["lat"])
        # obs switch off vs on, interleaved pairs of the untraced
        # pipeline over the first OBS_PROBE_ROWS rows.
        head = {
            name: column[:OBS_PROBE_ROWS] for name, column in self.records.items()
        }
        on, off = [], []
        for _ in range(OBS_PROBE_PAIRS):
            for sink, switch in ((off, False), (on, True)):
                obs.set_enabled(switch)
                try:
                    started = time.perf_counter()
                    result = self._pipeline(head)
                    sink.append(time.perf_counter() - started)
                finally:
                    obs.set_enabled(True)
                STManager.release_st_grid_array(result["tensor"])
        self.obs_overhead_ratio = statistics.median(on) / statistics.median(off)

    def layer_metrics(self, ctx) -> dict:
        tr = ctx.tr
        groupby = tr.operators(("GroupByAgg",))
        sources = tr.operators(("Source",))
        engine_s = tr.layer_table()["engine"]
        return {
            "engine.plan_build_s": tr.total("engine.plan_build"),
            "engine.narrow_s": tr.operator_seconds(*NARROW),
            "engine.groupby_s": tr.operator_seconds("GroupByAgg"),
            "engine.groupby_rows_in": groupby[0]["rows_in"],
            "engine.groupby_groups_out": groupby[0]["rows_out"],
            "engine.orderby_s": tr.operator_seconds("OrderBy"),
            "engine.rows_per_s": sum(s["rows_out"] for s in sources) / engine_s,
            "engine.meter_peak_mb": ctx.traced_result["meter"].peak / 2**20,
            "geometry.cell_ids_s": tr.total("geometry.cell_ids", PROBE),
            "grid.fill_s": tr.total("grid.fill"),
            "grid.alloc_mb": ctx.gauges.get("st.grid.alloc_bytes", 0) / 2**20,
            "converter.format_s": tr.total("converter.format.plan")
            + tr.operator_seconds("MapPartitions[df_formatter"),
            "converter.batch_s": tr.total("converter.batch"),
            "converter.first_batch_s": ctx.legs["converter.first_batch_s"],
            "converter.batches": len(ctx.traced_result["batches"]),
            "obs.overhead_ratio": self.obs_overhead_ratio,
        }
