"""Table VIII: offline pre-transformation vs on-the-fly transforms.

For transform counts 1..5 (each appending a normalized difference
index), times against each other (:mod:`repro.experiments.timing`)
one epoch of each training setting and one pretransform pass:

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


def satcnn_epoch(dataset, bands: int, grid: int, batch_size: int = 16, seed: int = 0):
    """A zero-argument arm: one SatCNN training epoch over ``dataset``
    in shuffled batches — the training Figure 9 and Table VIII time."""
    loader = DataLoader(dataset, batch_size=batch_size, shuffle=True, rng=seed)
    model = SatCNN(bands, grid, grid, NUM_CLASSES, rng=seed)
    trainer = Trainer(
        model,
        Adam(model.parameters(), lr=1e-3),
        CrossEntropyLoss(),
        classification_batch,
    )
    return lambda: trainer.train_epoch(loader)


def run_pretransform_experiment(
    transform_count: int,
    workdir: str,
    num_images: int = 96,
    grid: int = 32,
    seed: int = 0,
) -> dict:
    """One Table VIII row for the given transform count."""
    # Imported here, not above: the raster_e2e benchmark imports this
    # module for LazyRtifDataset alone.
    from repro.experiments.timing import interleaved

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

    def pretransform():
        df = load_geotiff_image(session, raw_dir, tiles_per_partition=32)
        for a, b in pairs:
            df = RasterProcessing.append_normalized_difference_index(df, a, b)
        write_geotiff_image(df, out_dir)

    pretransform()  # the offline setting trains from its output

    # --- (a, c) The two training settings ----------------------------
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
    timing = interleaved({
        "online": satcnn_epoch(online_dataset, bands, grid, seed=seed),
        "offline": satcnn_epoch(pre_dataset, bands, grid, seed=seed),
        "pretransform": pretransform,
    })
    return {
        "transform_count": transform_count,
        "train_with_transforms_s": timing["min"]["online"],
        "train_with_pretransforms_s": timing["min"]["offline"],
        "pretransform_s": timing["min"]["pretransform"],
        "timing": timing,
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
