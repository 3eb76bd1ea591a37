"""File-backed grid dataset: the download-then-load pattern.

Real GeoTorchAI datasets download an archive on first use and then
load from ``root``.  Here "download" means running the deterministic
synthetic generator once and caching the tensor under ``root``;
subsequent constructions load the cached file, so the on-disk
layout and load path match the original design (cache rules:
:func:`~repro.core.datasets.base.load_or_generate`).
"""

from __future__ import annotations

import os

from repro.core.datasets.base import GridDataset, load_or_generate


class FileBackedGridDataset(GridDataset):
    """Common machinery for named grid datasets stored under
    ``root/<DATASET_NAME>/data.npz``."""

    DATASET_NAME = "unnamed"

    def __init__(
        self, root: str, generator, generator_config: dict,
        download: bool = True, **grid_options,
    ):
        """``grid_options`` are :class:`GridDataset`'s keywords."""
        tensor = load_or_generate(
            os.path.join(root, self.DATASET_NAME),
            generator_config,
            lambda: {"st_tensor": generator(**generator_config)},
            download,
        )["st_tensor"]
        super().__init__(tensor, **grid_options)
        self.root = root
