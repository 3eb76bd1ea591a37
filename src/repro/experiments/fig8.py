"""Figure 8: grid tensor preparation — elapsed time and peak memory,
partitioned engine vs eager GeoPandas-style baseline.

The paper prepares NYC taxi tensors from 1.4M-250M trip records;
GeoPandas OOMs at the largest size.  Scaled record counts keep the
same x-axis structure (three orders of magnitude); the baseline runs
under a capped :class:`MemoryMeter` so its whole-dataset working set
hits the cap at the largest size, reproducing the OOM.
"""

from __future__ import annotations

import time

import numpy as np

from repro.baselines import EagerGeoFrame
from repro.core.datasets.synth import generate_trip_records
from repro.core.preprocessing.grid import STManager
from repro.engine import Session
from repro.experiments.tables import format_columns
from repro.geometry.envelope import Envelope
from repro.utils.memory import MemoryBudgetExceeded, MemoryMeter

# NYC-ish bounding box used by all Figure 8 runs.
NYC_ENVELOPE = Envelope(-74.05, -73.75, 40.6, 40.9)
DEFAULT_SIZES = (5_000, 50_000, 200_000, 500_000)
GRID_X, GRID_Y = 12, 16
STEP_SECONDS = 1800.0
NUM_STEPS = 48 * 7  # one week of half-hour slots


def make_records(num_records: int, seed: int = 0) -> dict:
    """Synthetic trip records for one run."""
    return generate_trip_records(
        num_records,
        NYC_ENVELOPE,
        num_steps=NUM_STEPS,
        step_seconds=STEP_SECONDS,
        seed=seed,
    )


def st_grid_df(session: Session, records: dict, lat_column: str = "lat",
               lon_column: str = "lon"):
    """The preparation plan: trip records -> points -> trip counts per
    (time step, grid cell)."""
    spatial = STManager.add_spatial_points(
        session.create_dataframe(records), lat_column=lat_column,
        lon_column=lon_column, new_column_alias="point",
    )
    return STManager.get_st_grid_dataframe(
        spatial,
        geometry="point",
        partitions_x=GRID_X,
        partitions_y=GRID_Y,
        col_date="pickup_time",
        step_duration_sec=STEP_SECONDS,
        envelope=NYC_ENVELOPE,
        temporal_origin=0.0,
    )


def run_engine_prep(records: dict, rows_per_partition: int = 50_000) -> dict:
    """Prepare the (T, H, W, 1) tensor with the partitioned engine.

    As in Spark, partition *size* is bounded and partition *count*
    grows with the data, so the streaming working set stays flat.
    """
    meter = MemoryMeter()
    num_records = len(records["lat"])
    num_partitions = max(2, -(-num_records // rows_per_partition))
    session = Session(default_parallelism=num_partitions, meter=meter)
    started = time.perf_counter()
    st_df = st_grid_df(session, records)
    tensor = STManager.get_st_grid_array(
        st_df, GRID_X, GRID_Y, num_steps=NUM_STEPS
    )
    elapsed = time.perf_counter() - started
    return {
        "system": "repro-engine",
        "records": len(records["lat"]),
        "seconds": elapsed,
        "peak_bytes": meter.peak,
        "oom": False,
        "tensor": tensor,
    }


def run_baseline_prep(records: dict, cap_bytes: int | None = None) -> dict:
    """Prepare the same tensor with the eager baseline (optionally
    memory-capped; a cap breach reports ``oom=True``)."""
    meter = MemoryMeter(cap_bytes=cap_bytes)
    started = time.perf_counter()
    tensor = None
    oom = False
    try:
        frame = EagerGeoFrame(dict(records), meter=meter)
        from repro.geometry.grid import UniformGrid

        grid = UniformGrid(NYC_ENVELOPE, GRID_X, GRID_Y)
        tensor = frame.prepare_st_tensor(
            grid,
            lat_column="lat",
            lon_column="lon",
            time_column="pickup_time",
            t0=0.0,
            step_seconds=STEP_SECONDS,
            num_steps=NUM_STEPS,
        )
    except MemoryBudgetExceeded:
        oom = True
    elapsed = time.perf_counter() - started
    return {
        "system": "geopandas-like",
        "records": len(records["lat"]),
        "seconds": elapsed,
        "peak_bytes": meter.peak,
        "oom": oom,
        "tensor": tensor,
    }


def run_figure8(
    sizes=DEFAULT_SIZES, baseline_cap_bytes: int = 150_000_000, seed: int = 0
) -> list[dict]:
    """Both systems at every size; returns one row per (system, size)."""
    rows = []
    for size in sizes:
        records = make_records(size, seed=seed)
        engine = run_engine_prep(records)
        baseline = run_baseline_prep(records, cap_bytes=baseline_cap_bytes)
        # Correctness cross-check when the baseline survived.
        if baseline["tensor"] is not None:
            engine_counts = engine["tensor"][..., 0]
            if not np.allclose(engine_counts, baseline["tensor"]):
                raise AssertionError(
                    f"engine and baseline tensors diverge at {size} records"
                )
        for row in (engine, baseline):
            row.pop("tensor", None)
            rows.append(row)
    return rows


def yellowtrip_tensor(num_records: int = 400_000, num_steps: int = 48 * 14):
    """Table IV's YellowTrip-NYC tensor, prepared end to end with the
    engine (trip records -> STManager -> tensor): pickup and dropoff
    counts as two channels."""
    records = make_records(num_records)
    session = Session(default_parallelism=8)
    channels = []
    for lat_col, lon_col in (("lat", "lon"), ("dropoff_lat", "dropoff_lon")):
        st_df = st_grid_df(session, records, lat_col, lon_col)
        tensor = STManager.get_st_grid_array(
            st_df, GRID_X, GRID_Y, num_steps=NUM_STEPS
        )
        channels.append(tensor[..., 0])
    stacked = np.stack(channels, axis=-1)
    # Tile the one generated week out to the requested horizon with
    # fresh sampling noise so the training set spans multiple weeks.
    reps = -(-num_steps // stacked.shape[0])
    rng = np.random.default_rng(7)
    weeks = [
        rng.poisson(np.maximum(stacked, 0.0)).astype(np.float32)
        for _ in range(reps)
    ]
    return np.concatenate(weeks, axis=0)[:num_steps]


def format_figure8(rows: list[dict]) -> str:
    return format_columns(
        "Figure 8: Grid-Based Spatiotemporal Tensor Preparation",
        (
            ("records", 9, lambda r: str(r["records"])),
            ("system", 15, lambda r: r["system"]),
            ("elapsed_s", 10, lambda r: f"{r['seconds']:.3f}"),
            ("peak_MB", 9, lambda r: f"{r['peak_bytes'] / 1e6:.2f}"),
            ("status", 7, lambda r: "OOM" if r["oom"] else "ok"),
        ),
        rows,
    )
