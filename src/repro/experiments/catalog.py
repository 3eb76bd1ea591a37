"""Tables I-III: the framework feature matrix and the two dataset
catalogs.

Not timing experiments.  Tables II and III are generated from the
dataset registry.  Table I's competitor rows reprint the paper's
literature claims; this reproduction's row is verified by exercising
each feature it claims.
"""

from __future__ import annotations

import numpy as np

from repro.core.datasets.base import GridDataset, RasterDataset
from repro.core.datasets.registry import grid_catalog, raster_catalog
from repro.engine import Session
from repro.experiments.tables import format_columns
from repro.geometry import Envelope, Point, STRTree

TABLE1_ROWS = (
    ("Geometric2DR", "Y", "-", "-", "-", "-"),
    ("PT Geometric", "Y", "-", "-", "-", "-"),
    ("TF Geometric", "Y", "-", "-", "-", "-"),
    ("GEM", "Y", "-", "-", "-", "-"),
    ("Spektral", "Y", "-", "-", "-", "-"),
    ("TorchGeo", "Y", "-", "-", "Y", "-"),
    ("Dynamic GEM", "Y", "Y", "-", "-", "-"),
    ("PT Geometric Temporal", "Y", "Y", "-", "-", "-"),
    ("This work (repro)", "Y", "Y", "Y", "Y", "Y"),
)


def run_catalog() -> dict:
    """The two catalogs' dataset names, and each feature Table I claims
    for this work, verified by exercising it."""
    # Spatial: spatial types + indexes exist and answer queries.
    tree = STRTree([(Envelope(0, 1, 0, 1), "a")])
    spatial = list(tree.query_point(Point(0.5, 0.5))) == ["a"]
    # Temporal + Grid: a grid dataset serves all three temporal
    # representations.
    ds = GridDataset(np.random.default_rng(0).random((60, 4, 4, 1)),
                     steps_per_period=12, steps_per_trend=24)
    ds.set_sequential_representation(4, 1)
    sequential_ok = ds[0][0].shape == (4, 1, 4, 4)
    ds.set_periodical_representation(2, 1, 1)
    temporal = sequential_ok and "x_trend" in ds[0]
    # Raster: a raster dataset with band selection works.
    rds = RasterDataset(
        np.zeros((2, 4, 4, 4), dtype=np.float32), np.zeros(2), bands=[0, 2]
    )
    # Scalable preprocessing: the engine streams partitions.
    df = Session(default_parallelism=4).create_dataframe({"x": np.arange(8)})
    return {
        "features": {
            "spatial": spatial,
            "temporal": temporal,
            "raster": rds.num_bands == 2,
            "scalable": df.num_partitions() == 4,
        },
        "grid_datasets": [info.name for info in grid_catalog()],
        "raster_datasets": [info.name for info in raster_catalog()],
    }


def format_catalog() -> str:
    table1 = format_columns(
        "Table I: Features Supported by Spatiotemporal DL Frameworks",
        [("Library", -24, lambda r: r[0])] + [
            (feature, width, lambda r, i=i: r[i])
            for i, (feature, width) in enumerate(
                (("Spatial", 8), ("Temporal", 9), ("Grid", 5), ("Raster", 7),
                 ("ScalablePrep", 13)), start=1)
        ],
        TABLE1_ROWS,
    )
    table2 = format_columns(
        "Table II: Grid-Based Spatiotemporal Datasets",
        (
            ("Dataset", -18, lambda d: d.name),
            ("Data Type", -26, lambda d: d.data_type),
            ("Grid", -8, lambda d: "x".join(map(str, d.grid_shape))),
            ("Interval", -12, lambda d: d.time_interval),
            ("Duration", 0, lambda d: d.time_duration),
        ),
        grid_catalog(),
    )
    table3 = format_columns(
        "Table III: Raster Image Datasets",
        (
            ("Dataset", -15, lambda d: d.name),
            ("Type", -28, lambda d: d.data_type),
            ("Image", -10, lambda d: "x".join(map(str, d.image_shape))),
            ("Classes", 8, lambda d: "-" if d.task == "segmentation"
             else str(d.num_classes)),
            ("Bands", 6, lambda d: str(d.num_bands)),
        ),
        raster_catalog(),
    )
    return "\n\n".join((table1, table2, table3))
