"""The design ablations (DESIGN.md §5 and the paper's re-partitioning,
ref [40]): each switches one mechanism off and measures what it buys.

- join: STR-tree-indexed spatial join vs brute force (§5.1);
- lazy: streaming partitions vs whole-dataset materialization (§5.2);
- representation: basic vs sequential vs periodical inputs (§5.4);
- converter: DFtoTorch streaming vs collect-then-tensorize (§5.5);
- repartition: training on a 2x2-coarsened grid tensor (ref [40]).

Sizes are fixed: none of them reads the experiment scale.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.converter import DFToTorchConverter, SpatiotemporalSpec
from repro.core.datasets.base import GridDataset
from repro.core.datasets.grid import BikeNYCDeepSTN
from repro.core.datasets.synth import generate_traffic_tensor
from repro.core.models.grid import PeriodicalCNN
from repro.core.preprocessing.grid import SpacePartition, STManager
from repro.core.training import Trainer, periodical_batch, rmse
from repro.data import DataLoader, sequential_split
from repro.engine import Session
from repro.experiments.fig8 import (
    GRID_X,
    GRID_Y,
    NUM_STEPS,
    NYC_ENVELOPE,
    make_records,
    st_grid_df,
)
from repro.geometry import Polygon
from repro.nn import Conv2d, MSELoss, ReLU, Sequential
from repro.optim import Adam
from repro.spatial import spatial_join_points_polygons
from repro.tensor import Tensor
from repro.utils.memory import MemoryMeter, approx_nbytes


# --- §5.1 join --------------------------------------------------------
#
# Both arms run the same batched pipeline and the same ray-casting
# arithmetic; they differ only in where the candidate (point, polygon)
# pairs come from: ``use_index=True`` probes the STR-tree's cell table,
# ``use_index=False`` pairs every point with every polygon.  Two zone
# sets: the grid's own rectangles, and the same cells split on a
# diagonal (no zone is its envelope, the TLC taxi-zone case).  The grid
# is finer than Figure 8's 12x16: index benefits grow with the polygon
# count, and city-scale joins use thousands of zones.
FINE_X, FINE_Y = 24, 32


def run_join(num_points: int = 20_000) -> dict:
    """Per zone set: its size, and each arm's seconds and matches."""
    records = make_records(num_points)
    rectangles = SpacePartition.generate_grid_cells(NYC_ENVELOPE, FINE_X, FINE_Y)
    triangles = []
    for cell in rectangles:
        a, b, c, d = ((v.x, v.y) for v in cell.vertices)
        triangles += [Polygon([a, b, c]), Polygon([a, c, d])]
    rows = {}
    for name, polygons in (("rectangles", rectangles), ("triangles", triangles)):
        rows[f"{name}_zones"] = len(polygons)
        for arm, use_index in (("indexed", True), ("brute", False)):
            df = Session(default_parallelism=4).create_dataframe(records)
            started = time.perf_counter()
            joined = spatial_join_points_polygons(
                df, polygons, x_column="lon", y_column="lat", use_index=use_index
            )
            rows[f"{name}_{arm}_matches"] = joined.count()
            rows[f"{name}_{arm}_s"] = time.perf_counter() - started
    return rows


# --- §5.2 lazy --------------------------------------------------------
#
# The working set is O(partition + result) because narrow chains stream
# one partition end to end; one partition holding the whole dataset
# inflates the peak accordingly.


def _prep_peak(records: dict, num_partitions: int) -> int:
    meter = MemoryMeter()
    session = Session(default_parallelism=num_partitions, meter=meter)
    st_df = st_grid_df(session, records)
    STManager.get_st_grid_array(st_df, GRID_X, GRID_Y, num_steps=NUM_STEPS)
    return meter.peak


def run_lazy(num_records: int = 400_000) -> dict:
    records = make_records(num_records)
    return {
        "streamed_peak_bytes": _prep_peak(records, num_partitions=16),
        "materialized_peak_bytes": _prep_peak(records, num_partitions=1),
    }


# --- §5.4 representation ----------------------------------------------
#
# To isolate the representation (not model capacity), one identical
# shallow CNN consumes, as input channels: the single latest frame
# (basic), the last six frames (sequential), or closeness + period +
# trend frames, the same total frame count (periodical).


def _basic_adapter(batch):
    x, y = batch
    return (Tensor(x),), Tensor(y)


def _sequential_adapter(batch):
    x, y = batch  # (N, T, C, H, W) -> stack time on channels
    x = np.asarray(x)
    n, t, c, h, w = x.shape
    y = np.asarray(y)
    if y.ndim == 5:
        y = y[:, 0]
    return (Tensor(x.reshape(n, t * c, h, w)),), Tensor(y)


def _periodical_adapter(batch):
    x = np.concatenate(
        [batch["x_closeness"], batch["x_period"], batch["x_trend"]], axis=1
    )
    return (Tensor(x),), Tensor(batch["y_data"])


def _representation_rmse(dataset, adapter, in_channels, epochs=12, seed=0):
    train, _, test = sequential_split(dataset, [0.8, 0.1, 0.1])
    train_loader = DataLoader(train, batch_size=16, shuffle=True, rng=seed)
    test_loader = DataLoader(test, batch_size=16)
    model = Sequential(
        Conv2d(in_channels, 16, 3, padding=1, rng=1),
        ReLU(),
        Conv2d(16, 2, 3, padding=1, rng=1),
    )
    trainer = Trainer(
        model, Adam(model.parameters(), lr=2e-3), MSELoss(), adapter
    )
    trainer.fit(train_loader, epochs=epochs)
    return trainer.evaluate(test_loader, {"rmse": rmse})["rmse"] * dataset.scale


def run_representation(data_root: str) -> dict:
    results = {}
    ds = BikeNYCDeepSTN(data_root, num_steps=1000)
    ds.set_basic_representation(lead_time=1)
    results["basic"] = _representation_rmse(ds, _basic_adapter, 2)

    ds = BikeNYCDeepSTN(data_root, num_steps=1000)
    ds.set_sequential_representation(6, 1)
    results["sequential"] = _representation_rmse(ds, _sequential_adapter, 12)

    ds = BikeNYCDeepSTN(data_root, num_steps=1000)
    ds.set_periodical_representation(3, 2, 1)
    results["periodical"] = _representation_rmse(ds, _periodical_adapter, 12)
    return results


# --- §5.5 converter ---------------------------------------------------
#
# Converting a preprocessed DataFrame by first collecting it onto the
# master exceeds the streaming converter's working set.


def run_converter(num_records: int = 100_000) -> dict:
    records = make_records(num_records)
    # Streaming: the converter pulls partitions through DFFormatter and
    # emits batches; peak = partition + pending batch.
    meter = MemoryMeter()
    st_df = st_grid_df(Session(default_parallelism=8, meter=meter), records)
    spec = SpatiotemporalSpec(
        partitions_x=GRID_X, partitions_y=GRID_Y, lead_time=1
    )
    shapes = [
        (list(x.shape), list(y.shape))
        for x, y in DFToTorchConverter(spec).convert(st_df, batch_size=32)
    ]
    streaming_peak = meter.peak

    # Collect-then-tensorize: materialize every row on the driver first
    # (the naive path the paper argues against).
    meter = MemoryMeter()
    st_df = st_grid_df(Session(default_parallelism=8, meter=meter), records)
    meter.allocate(approx_nbytes(st_df.collect()))
    x_shape, y_shape = shapes[0] if shapes else ([], [])
    return {
        "batches": len(shapes),
        "x_shape": x_shape,
        "y_shape": y_shape,
        "streaming_peak_bytes": streaming_peak,
        "collected_peak_bytes": meter.peak,
    }


# --- ref [40] repartition ---------------------------------------------
#
# The preprocessing module reduces a grid dataset's volume by
# coarsening its spatial resolution, "with an end goal of reducing the
# training time".  The same model trains on the full-resolution tensor
# and on a 2x2-coarsened one.


def _train_coarsened(tensor, epochs=8, seed=0):
    dataset = GridDataset(tensor, steps_per_period=24, steps_per_trend=168)
    dataset.set_periodical_representation(3, 2, 1)
    train, _, test = sequential_split(dataset, [0.8, 0.1, 0.1])
    train_loader = DataLoader(train, batch_size=16, shuffle=True, rng=seed)
    test_loader = DataLoader(test, batch_size=16)
    model = PeriodicalCNN(3, 2, 1, tensor.shape[-1], rng=seed)
    trainer = Trainer(
        model, Adam(model.parameters(), lr=2e-3), MSELoss(), periodical_batch
    )
    started = time.perf_counter()
    for _ in range(epochs):
        trainer.train_epoch(train_loader)
    seconds = time.perf_counter() - started
    error = trainer.evaluate(test_loader, {"rmse": rmse})["rmse"]
    # Normalize: coarsened cells aggregate 4 cells, so raw errors scale
    # with cell area; compare errors relative to each tensor's scale.
    return seconds, float(error * dataset.scale / tensor.mean())


def run_repartition() -> dict:
    full = generate_traffic_tensor(800, 16, 16, 1, seed=31)
    coarse = SpacePartition.coarsen_st_tensor(full, 2, 2)
    full_s, full_err = _train_coarsened(full)
    coarse_s, coarse_err = _train_coarsened(coarse)
    return {
        "full_s": full_s,
        "full_error": full_err,
        "coarse_s": coarse_s,
        "coarse_error": coarse_err,
    }
