"""Property-based tests: the DFtoTorch converter streams exactly the
rows a full collect would produce, for arbitrary partitionings, and
cuts spatiotemporal samples as a ``GridDataset`` over the collected
grid tensor does."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.converter import (
    ClassificationSpec,
    DFToTorchConverter,
    SpatiotemporalSpec,
)
from repro.core.datasets import WindowPlan
from repro.core.datasets.base import GridDataset
from repro.core.preprocessing.grid import STManager
from repro.data import DataLoader
from repro.engine import Session
from repro.engine.partition import Partition
from repro.engine.schema import Field, Schema
from repro.spatial import RasterTile
from repro.tensor import Tensor


@st.composite
def tile_frames(draw):
    n = draw(st.integers(min_value=1, max_value=25))
    parts = draw(st.integers(min_value=1, max_value=4))
    batch = draw(st.integers(min_value=1, max_value=8))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return n, parts, batch, seed


@settings(max_examples=25, deadline=None)
@given(tile_frames())
def test_classification_stream_equals_collect(case):
    n, parts, batch, seed = case
    rng = np.random.default_rng(seed)
    tiles = np.empty(n, dtype=object)
    for i in range(n):
        tiles[i] = RasterTile(rng.random((1, 2, 2)).astype(np.float32))
    labels = rng.integers(0, 3, n)
    session = Session(default_parallelism=parts)
    df = session.create_dataframe({"tile": tiles, "label": labels})

    converter = DFToTorchConverter(ClassificationSpec())
    xs, ys = [], []
    for x, y in converter.convert(df, batch_size=batch):
        xs.append(x.numpy())
        ys.append(y.numpy())
    streamed_x = np.concatenate(xs)
    streamed_y = np.concatenate(ys)

    assert streamed_x.shape[0] == n
    np.testing.assert_allclose(
        streamed_x, np.stack([t.data for t in tiles])
    )
    np.testing.assert_array_equal(streamed_y, labels)


@st.composite
def sparse_st_frames(draw):
    steps = draw(st.integers(min_value=2, max_value=20))
    lead = draw(st.integers(min_value=1, max_value=min(3, steps - 1)))
    parts = draw(st.integers(min_value=1, max_value=4))
    batch = draw(st.integers(min_value=1, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return steps, lead, parts, batch, seed


@settings(max_examples=25, deadline=None)
@given(sparse_st_frames())
def test_spatiotemporal_pairs_complete_and_ordered(case):
    steps, lead, parts, batch, seed = case
    rng = np.random.default_rng(seed)
    w, h = 3, 2
    rows = []
    dense = np.zeros((steps, h, w), dtype=np.float32)
    for t in range(steps):
        for cell in rng.choice(w * h, size=rng.integers(1, w * h), replace=False):
            value = float(rng.integers(1, 50))
            rows.append(
                {"time_step": t, "cell_id": int(cell), "count": value}
            )
            dense[t, cell // w, cell % w] = value
    session = Session(default_parallelism=parts)
    df = session.create_dataframe(rows)

    spec = SpatiotemporalSpec(partitions_x=w, partitions_y=h, lead_time=lead)
    xs, ys = [], []
    for x, y in DFToTorchConverter(spec).convert(df, batch_size=batch):
        xs.append(x.numpy())
        ys.append(y.numpy())
    streamed_x = np.concatenate(xs)[:, 0]
    streamed_y = np.concatenate(ys)[:, 0]

    assert streamed_x.shape[0] == steps - lead
    np.testing.assert_allclose(streamed_x, dense[:-lead])
    np.testing.assert_allclose(streamed_y, dense[lead:])


ST_SCHEMA = Schema([
    Field("time_step", np.int64), Field("cell_id", np.int64),
    Field("count", np.float32),
])
W, H = 3, 2


def _st_frame(rows, cuts):
    """``rows`` (time order) as a frame whose partitions end at ``cuts``."""
    columns = {
        "time_step": np.array([r[0] for r in rows], dtype=np.int64),
        "cell_id": np.array([r[1] for r in rows], dtype=np.int64),
        "count": np.array([r[2] for r in rows], dtype=np.float32),
    }
    bounds = [0, *cuts, len(rows)]
    parts = [
        Partition({k: v[lo:hi] for k, v in columns.items()})
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]
    return Session().from_partitions([lambda p=p: p for p in parts], ST_SCHEMA)


@st.composite
def windowed_timelines(draw):
    """Rows over up to 24 steps, some absent, some before step 0, cut
    into partitions anywhere (a step's rows may straddle a cut), with
    a plan of each kind and a batch size."""
    steps = draw(st.integers(min_value=1, max_value=24))
    present = draw(st.lists(st.booleans(), min_size=steps, max_size=steps))
    rows = [(-2, 0, 9.0)] * draw(st.integers(0, 1)) + [(-1, 5, 8.0)] * draw(
        st.integers(0, 1)
    )
    for t in (t for t in range(steps) if present[t]):
        cells = draw(st.sets(st.integers(0, W * H - 1), min_size=1, max_size=4))
        rows += [(t, c, float(draw(st.integers(1, 50)))) for c in sorted(cells)]
    if not any(row[0] >= 0 for row in rows):
        rows.append((0, 0, 1.0))
    cuts = draw(st.lists(st.integers(1, len(rows) - 1), max_size=4)) if len(rows) > 1 else []
    kind = draw(st.sampled_from(["basic", "sequential", "periodical"]))
    if kind == "basic":
        args = (draw(st.integers(1, 3)),)
    elif kind == "sequential":
        args = (draw(st.integers(1, 4)), draw(st.integers(1, 3)))
    else:
        period = draw(st.integers(1, 3))
        args = (
            draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.integers(1, 2)),
            period, period * draw(st.integers(1, 3)),
        )
    return rows, sorted(set(cuts)), kind, args, draw(st.integers(1, 6))


def _bits(batch):
    """A batch of arrays or tensors as comparable (key, dtype, shape,
    bytes) tuples."""
    items = batch.items() if isinstance(batch, dict) else enumerate(batch)
    arrays = ((key, v.data if isinstance(v, Tensor) else v) for key, v in items)
    return [(key, a.dtype, a.shape, a.tobytes()) for key, a in arrays]


@settings(max_examples=80, deadline=None)
@given(windowed_timelines())
def test_spatiotemporal_batches_equal_grid_dataset_loader(case):
    rows, cuts, kind, args, batch = case
    df = _st_frame(rows, cuts)
    tensor = STManager.get_st_grid_array(df, W, H)
    try:
        dataset = GridDataset(
            tensor, normalize=False,
            **({"steps_per_period": args[3], "steps_per_trend": args[4]}
               if kind == "periodical" else {}),
        )
    finally:
        STManager.release_st_grid_array(tensor)
    window = getattr(WindowPlan, kind)(*args)
    spec = SpatiotemporalSpec(W, H, window=window)
    setter = getattr(dataset, f"set_{kind}_representation")
    try:
        setter(*args[:3])
    except ValueError as error:
        assert "exceeds" in str(error)
        with pytest.raises(ValueError, match="exceeds"):
            list(DFToTorchConverter(spec).convert(df, batch_size=batch))
        return
    streamed = [_bits(b) for b in DFToTorchConverter(spec).convert(df, batch_size=batch)]
    loaded = [_bits(b) for b in DataLoader(dataset, batch_size=batch)]
    assert streamed == loaded


@pytest.mark.parametrize("kind, args", [
    ("basic", (1,)), ("sequential", (6, 1)), ("periodical", (3, 2, 1, 24, 48)),
])
def test_spatiotemporal_residency_does_not_grow_with_steps(kind, args):
    """The same plan over T and 4T steps, 16 steps of 12 rows per
    partition, peaks within one partition block."""
    rows_per_step, steps_per_part, width, height = 12, 16, 12, 16
    schema = Schema([
        Field("time_step", np.int64), Field("cell_id", np.int64),
        Field("count", np.float64),
    ])

    def partition(k):
        steps = np.arange(k * steps_per_part, (k + 1) * steps_per_part)
        return Partition({
            "time_step": np.repeat(steps, rows_per_step),
            "cell_id": np.tile(np.arange(rows_per_step) * 7, steps_per_part),
            "count": np.ones(steps_per_part * rows_per_step),
        })

    spec = SpatiotemporalSpec(width, height, window=getattr(WindowPlan, kind)(*args))
    block = steps_per_part * width * height * 4

    def peak(num_parts):
        df = Session().from_partitions(
            [lambda k=k: partition(k) for k in range(num_parts)], schema
        )
        stream = DFToTorchConverter(spec).convert(df, batch_size=8)
        tracemalloc.start()
        try:
            samples = sum(len(b[0] if isinstance(b, tuple) else b["y_data"]) for b in stream)
            return samples, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    (short, short_peak), (long, long_peak) = peak(8), peak(32)
    span = spec.window.span
    assert (short, long) == (8 * steps_per_part - span, 32 * steps_per_part - span)
    assert abs(long_peak - short_peak) <= block
