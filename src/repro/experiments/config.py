"""Experiment scale configuration.

The paper's experiments ran on a 120 GB / GPU workstation over months
of real data; this reproduction runs on one CPU core.  Every knob that
shrinks an experiment lives here, and the command line picks one of
two named scales (``python -m repro.experiments.run --scale``):

- ``paper`` — the defaults below: 2 seeds (paper: 5), 1 000 timesteps
  per grid dataset, 300 / 80 images per raster dataset, 25 epochs;
- ``smoke`` — 1 seed, 800 timesteps, 40 / 16 images, 1 epoch, for a
  gate that checks the claims that resolve this small.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class ExperimentConfig:
    """Scale knobs shared by all experiment runners."""

    seeds: int = 2
    grid_steps: int = 1000
    num_images: int = 300
    num_seg_images: int = 80
    max_epochs: int = 25
    batch_size: int = 16
    patience: int = 6
    # Periodical representation lengths used across grid experiments.
    len_closeness: int = 3
    len_period: int = 2
    len_trend: int = 1
    history_length: int = 6
    # Weather experiments use a scaled grid (paper: 32x64).
    weather_grid: tuple = (12, 24)
    seg_image_shape: tuple = (32, 32)
    cls_image_shape: tuple = (32, 32)

    def __post_init__(self):
        for name, least in (
            ("seeds", 1), ("grid_steps", 1), ("max_epochs", 1),
            ("batch_size", 1), ("patience", 1),
            ("num_images", 0), ("num_seg_images", 0),
        ):
            value = getattr(self, name)
            if value < least:
                raise ValueError(
                    f"ExperimentConfig.{name} must be >= {least}, got {value}"
                )


#: Each scale's overrides of the defaults above.
SCALES = {
    "smoke": dict(seeds=1, grid_steps=800, num_images=40, num_seg_images=16,
                  max_epochs=1),
    "paper": {},
}
