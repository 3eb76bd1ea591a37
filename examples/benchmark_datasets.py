"""Every benchmark dataset of the paper's Tables II and III, by name.

Builds each named grid and raster dataset class at a reduced size (72
steps, four images) under a temporary root, asserts its band and class
counts against its ``DATASET_REGISTRY`` entry, and prints one line per
dataset with the grid shape next to the catalog's (the weather grids
are generated at a reduced default resolution).  The last line wraps
in-memory images as a ``CustomRasterDataset`` (Section III-A1).

Run:  python examples/benchmark_datasets.py
"""

import tempfile

import numpy as np

from repro.core.datasets import DATASET_REGISTRY, DatasetInfo
from repro.core.datasets.grid import (
    BikeNYCDeepSTN,
    BikeNYCSTDN,
    Geopotential,
    SolarRadiation,
    TaxiBJ21,
    TaxiNYCSTDN,
    Temperature,
    TotalCloudCover,
    TotalPrecipitation,
    YellowTripNYC,
)
from repro.core.datasets.raster import (
    SAT4,
    SAT6,
    Cloud38,
    CustomRasterDataset,
    EuroSAT,
    SlumDetection,
)

GRID = {
    "BikeNYC-DeepSTN": BikeNYCDeepSTN,
    "TaxiNYC-STDN": TaxiNYCSTDN,
    "BikeNYC-STDN": BikeNYCSTDN,
    "TaxiBJ21": TaxiBJ21,
    "YellowTrip-NYC": YellowTripNYC,
    "Temperature": Temperature,
    "TotalPrecipitation": TotalPrecipitation,
    "TotalCloudCover": TotalCloudCover,
    "Geopotential": Geopotential,
    "SolarRadiation": SolarRadiation,
}
RASTER = {
    "SAT-6": SAT6,
    "SAT-4": SAT4,
    "EuroSAT": EuroSAT,
    "SlumDetection": SlumDetection,
    "38-Cloud": Cloud38,
}


def check_grid(name: str, info: DatasetInfo, root: str) -> str:
    dataset = GRID[name](root, num_steps=72)
    shape = (dataset.grid_height, dataset.grid_width)
    return (
        f"{name:<20s} grid {shape} (catalog {info.grid_shape}), "
        f"{dataset.num_channels} channel(s), {dataset.num_timesteps} steps"
    )


def check_raster(name: str, info: DatasetInfo, root: str) -> str:
    dataset = RASTER[name](root, num_images=4)
    assert dataset.num_bands == info.num_bands, name
    if info.task == "classification":
        assert dataset.num_classes == info.num_classes, name
    return (
        f"{name:<20s} {info.task}: {len(dataset)} images of "
        f"{dataset.num_bands} bands, {dataset.num_classes} classes"
    )


def main():
    root = tempfile.mkdtemp(prefix="benchmark_datasets_")
    for name, info in DATASET_REGISTRY.items():
        check = check_grid if info.category == "grid" else check_raster
        print(check(name, info, root))
    images = np.random.default_rng(0).random((6, 3, 8, 8), dtype=np.float32)
    custom = CustomRasterDataset(images, np.arange(6) % 2)
    print(f"{'custom raster':<20s} {len(custom)} images of {custom.num_bands} bands")


if __name__ == "__main__":
    main()
