"""File-backed raster dataset machinery (same download-then-load
pattern as the grid side)."""

from __future__ import annotations

import os

from repro.core.datasets.base import RasterDataset, load_or_generate


class FileBackedRasterDataset(RasterDataset):
    """Named raster dataset stored under ``root/<DATASET_NAME>/data.npz``."""

    DATASET_NAME = "unnamed"

    def __init__(
        self,
        root: str,
        generator,
        generator_config: dict,
        bands=None,
        transform=None,
        include_additional_features: bool = False,
        download: bool = True,
    ):
        def generate():
            images, labels = generator(**generator_config)
            return {"images": images, "labels": labels}

        cached = load_or_generate(
            os.path.join(root, self.DATASET_NAME),
            generator_config,
            generate,
            download,
        )
        images, labels = cached["images"], cached["labels"]
        super().__init__(
            images,
            labels,
            bands=bands,
            transform=transform,
            include_additional_features=include_additional_features,
        )
        self.root = root
