"""Figure 9: epoch time vs number of spectral bands and grid size,
accelerated ("GPU") vs naive ("CPU") backend.

The paper trains SatCNN on EuroSAT varying bands in {3, 5, 8, 10, 13}
(fixed 64x64 grid) and grid size in {28, 32, 64} (fixed 3 RGB bands),
on GPU and CPU.  Here the two legs are the two execution backends of
:mod:`repro.tensor` (see DESIGN.md §2 for why this preserves the
comparison), and the image count is scaled down.
"""

from __future__ import annotations

import time

from repro.core.datasets.base import RasterDataset
from repro.core.datasets.synth import generate_classification_rasters
from repro.core.models.raster import SatCNN
from repro.core.training import Trainer, classification_batch
from repro.data import DataLoader
from repro.experiments.tables import format_columns
from repro.nn import CrossEntropyLoss
from repro.optim import Adam
from repro.tensor import use_backend

BAND_COUNTS = (3, 5, 8, 10, 13)
GRID_SIZES = (28, 32, 64)
NUM_CLASSES = 10


def epoch_time(
    bands: int,
    grid: int,
    backend: str,
    num_images: int = 48,
    batch_size: int = 16,
    seed: int = 0,
    repeats: int = 2,
) -> float:
    """Seconds to train SatCNN for one epoch at this configuration
    (minimum over ``repeats`` epochs, to shed scheduler noise)."""
    images, labels = generate_classification_rasters(
        num_images, NUM_CLASSES, bands, grid, grid, seed=seed
    )
    dataset = RasterDataset(images, labels)
    loader = DataLoader(dataset, batch_size=batch_size, shuffle=True, rng=seed)
    model = SatCNN(bands, grid, grid, NUM_CLASSES, rng=seed)
    trainer = Trainer(
        model,
        Adam(model.parameters(), lr=1e-3),
        CrossEntropyLoss(),
        classification_batch,
    )
    best = float("inf")
    with use_backend(backend):
        for _ in range(repeats):
            started = time.perf_counter()
            trainer.train_epoch(loader)
            best = min(best, time.perf_counter() - started)
    return best


def run_figure9(num_images: int = 48) -> list[dict]:
    """Figure 9a (band count varies, 32x32 grid), then 9b (grid size
    varies, 3 RGB bands), each point on both backends."""
    points = [("bands", bands, 32) for bands in BAND_COUNTS]
    points += [("grid", 3, grid) for grid in GRID_SIZES]
    return [
        {
            "axis": axis,
            "bands": bands,
            "grid": grid,
            "backend": backend,
            "seconds": epoch_time(bands, grid, backend, num_images=num_images),
        }
        for axis, bands, grid in points
        for backend in ("accelerated", "naive")
    ]


def format_figure9(rows: list[dict]) -> str:
    return format_columns(
        "Figure 9: Epoch Time vs #Bands and Grid Shape",
        (
            ("axis", 6, lambda r: r["axis"]),
            ("bands", 6, lambda r: str(r["bands"])),
            ("grid", 6, lambda r: str(r["grid"])),
            ("backend", 12, lambda r: r["backend"]),
            ("seconds", 9, lambda r: f"{r['seconds']:.3f}"),
        ),
        rows,
    )
