"""Table VIII: offline pre-transformation vs on-the-fly transforms.

For transform counts 1..5 (each appending a normalized difference
index), measures:

- *train with transforms*  — the training loop decodes each raw tile
  from the on-disk raster store on every access (as raster datasets
  do when images exceed memory) and applies the transform chain on
  the fly, every epoch;
- *pretransform*           — the preprocessing module streams the tile
  folder once, applies the chain, and writes transformed tiles back;
- *train with pretransforms* — training from the pre-transformed
  store, bulk-loaded once into arrays (no per-sample decode or
  transform work).

Paper shape: online training time exceeds pretransform + offline
training and grows with the transform count; offline training time is
flat in the count; pretransform cost is write-dominated and grows only
mildly with the count.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.core.datasets.base import RasterDataset
from repro.core.datasets.synth import generate_classification_rasters
from repro.core.models.raster import SatCNN
from repro.core.preprocessing import (
    load_geotiff_image,
    write_geotiff_image,
)
from repro.core.preprocessing.raster import RasterProcessing
from repro.core.training import Trainer, classification_batch
from repro.core.transforms import AppendNormalizedDifferenceIndex, Compose
from repro.data import DataLoader, Dataset
from repro.engine import Session
from repro.experiments.tables import format_columns
from repro.nn import CrossEntropyLoss
from repro.optim import Adam
from repro.spatial.raster import RasterTile
from repro.spatial.raster_io import RTIF_EXTENSION, read_rtif, write_rtif

NUM_CLASSES = 10
BASE_BANDS = 13
# Band pairs for up to five appended normalized difference indices.
NDI_PAIRS = ((0, 1), (2, 3), (4, 5), (6, 7), (8, 9))


class LazyRtifDataset(Dataset):
    """Decodes one ``.rtif`` tile per access — the out-of-memory
    raster-dataset access pattern whose per-epoch decode cost the
    offline pipeline eliminates."""

    def __init__(self, folder: str, labels: np.ndarray, transform=None):
        self.paths = sorted(
            os.path.join(folder, f)
            for f in os.listdir(folder)
            if f.endswith(RTIF_EXTENSION)
        )
        if len(self.paths) != len(labels):
            raise ValueError(
                f"{len(self.paths)} tiles but {len(labels)} labels"
            )
        self.labels = np.asarray(labels, dtype=np.int64)
        self.transform = transform

    def __len__(self):
        return len(self.paths)

    def __getitem__(self, index):
        image = read_rtif(self.paths[index]).data
        if self.transform is not None:
            image = self.transform(image)
        return image, self.labels[index]


def _make_tile_store(images: np.ndarray, folder: str) -> None:
    os.makedirs(folder, exist_ok=True)
    for i in range(len(images)):
        write_rtif(
            RasterTile(images[i], name=f"img_{i:05d}"),
            os.path.join(folder, f"img_{i:05d}"),
        )


def _train_seconds(dataset, bands: int, grid: int, epochs: int, seed: int) -> float:
    loader = DataLoader(dataset, batch_size=16, shuffle=True, rng=seed)
    model = SatCNN(bands, grid, grid, NUM_CLASSES, rng=seed)
    trainer = Trainer(
        model,
        Adam(model.parameters(), lr=1e-3),
        CrossEntropyLoss(),
        classification_batch,
    )
    started = time.perf_counter()
    for _ in range(epochs):
        trainer.train_epoch(loader)
    return time.perf_counter() - started


def run_pretransform_experiment(
    transform_count: int,
    workdir: str,
    num_images: int = 96,
    grid: int = 32,
    epochs: int = 3,
    seed: int = 0,
) -> dict:
    """One Table VIII row for the given transform count."""
    if not 1 <= transform_count <= len(NDI_PAIRS):
        raise ValueError(
            f"transform_count must be in 1..{len(NDI_PAIRS)}, "
            f"got {transform_count}"
        )
    images, labels = generate_classification_rasters(
        num_images, NUM_CLASSES, BASE_BANDS, grid, grid, seed=seed
    )
    pairs = NDI_PAIRS[:transform_count]
    raw_dir = os.path.join(workdir, f"raw_{transform_count}")
    out_dir = os.path.join(workdir, f"pre_{transform_count}")
    _make_tile_store(images, raw_dir)

    # --- (b) Offline pre-transformation with the preprocessing module -
    session = Session(default_parallelism=4)
    started = time.perf_counter()
    df = load_geotiff_image(session, raw_dir, tiles_per_partition=32)
    for a, b in pairs:
        df = RasterProcessing.append_normalized_difference_index(df, a, b)
    write_geotiff_image(df, out_dir)
    pretransform_seconds = time.perf_counter() - started

    # --- (a, c) The two training settings, measured interleaved -------
    # Wall-clock drifts over minutes on shared machines; interleaving
    # the online/offline measurements and taking per-setting minima
    # keeps the comparison paired.
    online = Compose(
        [AppendNormalizedDifferenceIndex(a, b) for a, b in pairs]
    )
    online_dataset = LazyRtifDataset(raw_dir, labels, transform=online)
    pre_df = load_geotiff_image(session, out_dir, tiles_per_partition=32)
    columns = pre_df.to_columns()
    order = np.argsort(columns["name"])
    pre_images = np.stack([columns["tile"][i].data for i in order])
    pre_dataset = RasterDataset(pre_images, labels)

    bands = BASE_BANDS + transform_count
    online_times, pre_times = [], []
    for _ in range(2):
        online_times.append(
            _train_seconds(online_dataset, bands, grid, epochs, seed)
        )
        pre_times.append(
            _train_seconds(pre_dataset, bands, grid, epochs, seed)
        )
    online_seconds = min(online_times)
    pre_seconds = min(pre_times)

    return {
        "transform_count": transform_count,
        "train_with_transforms_s": online_seconds,
        "train_with_pretransforms_s": pre_seconds,
        "pretransform_s": pretransform_seconds,
    }


def format_table8(rows: list[dict]) -> str:
    return format_columns(
        "Table VIII: Elapsed Seconds for Training and Preprocessing Settings",
        (
            ("count", 6, lambda r: str(r["transform_count"])),
            ("train_w_transforms", 19,
             lambda r: f"{r['train_with_transforms_s']:.3f}"),
            ("train_w_pretransforms", 22,
             lambda r: f"{r['train_with_pretransforms_s']:.3f}"),
            ("pretransform", 13, lambda r: f"{r['pretransform_s']:.3f}"),
        ),
        rows,
    )
