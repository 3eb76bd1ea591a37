"""Figure 9: epoch time vs number of spectral bands and grid size,
accelerated ("GPU") vs naive ("CPU") backend.

The paper trains SatCNN on EuroSAT varying bands in {3, 5, 8, 10, 13}
(fixed 64x64 grid) and grid size in {28, 32, 64} (fixed 3 RGB bands),
on GPU and CPU.  Here the two legs are the two execution backends of
:mod:`repro.tensor` (see DESIGN.md §2 for why this preserves the
comparison), and the image count is scaled down.  Every point is
timed against every other by the protocol of
:mod:`repro.experiments.timing`, one epoch per arm.
"""

from __future__ import annotations

from repro.core.datasets.base import RasterDataset
from repro.core.datasets.synth import generate_classification_rasters
from repro.experiments.pretransform import NUM_CLASSES, satcnn_epoch
from repro.experiments.tables import format_columns
from repro.experiments.timing import interleaved
from repro.tensor import use_backend

BAND_COUNTS = (3, 5, 8, 10, 13)
GRID_SIZES = (28, 32, 64)


def epoch_arm(
    bands: int,
    grid: int,
    backend: str,
    num_images: int = 48,
    batch_size: int = 16,
    seed: int = 0,
):
    """A zero-argument arm: one SatCNN training epoch at this
    configuration on ``backend``."""
    images, labels = generate_classification_rasters(
        num_images, NUM_CLASSES, bands, grid, grid, seed=seed
    )
    epoch = satcnn_epoch(
        RasterDataset(images, labels), bands, grid, batch_size, seed
    )

    def run():
        with use_backend(backend):
            epoch()

    return run


def arm_name(bands: int, grid: int, backend: str) -> str:
    return f"{bands}b {grid}px {backend}"


def run_figure9(num_images: int = 48) -> dict:
    """Figure 9a (band count varies, 32x32 grid), then 9b (grid size
    varies, 3 RGB bands), each point on both backends, all timed against
    each other as arms named by :func:`arm_name`: one row per (axis,
    point, backend) under ``"points"``, the timing under ``"timing"``."""
    points = [("bands", bands, 32) for bands in BAND_COUNTS]
    points += [("grid", 3, grid) for grid in GRID_SIZES]
    configs = {  # a dict: 3 bands at 32x32 lies on both axes
        arm_name(bands, grid, backend): (bands, grid, backend)
        for _, bands, grid in points for backend in ("accelerated", "naive")
    }
    timing = interleaved({
        name: epoch_arm(*config, num_images=num_images)
        for name, config in configs.items()
    })
    rows = [
        {"axis": axis, "bands": bands, "grid": grid, "backend": backend,
         "seconds": timing["min"][arm_name(bands, grid, backend)]}
        for axis, bands, grid in points for backend in ("accelerated", "naive")
    ]
    return {"points": rows, "timing": timing}


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
