"""Distributed raster preprocessing + DFtoTorch conversion.

Mirrors the paper's Listing 9 and Section III-C: load a folder of
GeoTIFF-like tiles as a raster DataFrame, chain transformation and
feature-extraction operations (all lazy, fused into one streaming
pass), write the result back, and stream training batches straight out
of the DataFrame with the DFtoTorch converter — no driver-side
collect.  On the way it runs the rest of the preprocessing module's
raster API once: the band ops and map algebra of ``RasterProcessing``,
per-band means, GLCM texture features, and the on-the-fly
spectral-index transforms the offline pass stands in for.

Run:  python examples/raster_preprocessing_pipeline.py
"""

import os
import tempfile

import numpy as np

from repro.core.converter import ClassificationSpec, DFToTorchConverter
from repro.core.datasets.synth import generate_classification_rasters
from repro.core.models.raster import SatCNN
from repro.core.preprocessing import load_geotiff_image, write_geotiff_image
from repro.core.preprocessing.raster import RasterProcessing
from repro.core.preprocessing.raster.glcm import glcm_features
from repro.core.transforms import (
    AppendNormalizedDifferenceIndex,
    AppendRatioIndex,
    Compose,
)
from repro.engine import Session
from repro.engine.partition import Partition
from repro.nn import CrossEntropyLoss
from repro.optim import Adam
from repro.spatial.raster import RasterTile
from repro.spatial.raster_io import write_rtif


def make_tile_folder(folder: str, num_images: int = 120):
    """Write a synthetic EuroSAT-style tile folder + labels."""
    images, labels = generate_classification_rasters(
        num_images, num_classes=10, bands=13, height=32, width=32, seed=0
    )
    os.makedirs(folder, exist_ok=True)
    for i in range(num_images):
        write_rtif(
            RasterTile(images[i], name=f"tile_{i:05d}"),
            os.path.join(folder, f"tile_{i:05d}"),
        )
    return labels


def band_ops_tour(rs_df):
    """Every remaining ``RasterProcessing`` band op on the raw tiles,
    lazily chained, then run once: 13 bands in, 13 bands out."""
    df = RasterProcessing.band_arithmetic(rs_df, 7, 3, "divide")  # NIR / red
    df = RasterProcessing.bitwise_band_operation(df, 13, 13, "and")
    df = RasterProcessing.mask_band_on_threshold(df, 13, threshold=1.0)
    df = RasterProcessing.append_band(
        df, lambda tile: tile.band(7) - tile.band(3), label="nir_minus_red"
    )
    for band in (15, 14, 13):  # drop the three derived bands again
        df = RasterProcessing.delete_band(df, band)
    df = RasterProcessing.get_band_means(df)
    row = df.take(1)[0]
    print(
        f"band ops: {row['n_bands']} bands after the round trip; "
        f"first tile's band means {np.round(row['band_means'][:3], 3)} ..."
    )


def main():
    workdir = tempfile.mkdtemp(prefix="raster_pipeline_")
    raw_dir = os.path.join(workdir, "raw")
    out_dir = os.path.join(workdir, "transformed")
    labels = make_tile_folder(raw_dir)
    print(f"wrote raw tiles to {raw_dir}")

    # Listing 9: load -> transform -> write, all on the engine.
    session = Session(default_parallelism=4)
    rs_df = load_geotiff_image(session, raw_dir, tiles_per_partition=32)
    rs_df = RasterProcessing.append_normalized_difference_index(
        rs_df, band_index1=7, band_index2=3
    )
    rs_df = RasterProcessing.normalize_band(rs_df, band_index=0)
    rs_df = RasterProcessing.extract_glcm_features(rs_df, band_index=0)
    count = write_geotiff_image(rs_df, out_dir)
    print(f"wrote {count} transformed tiles to {out_dir}")
    print("plan executed:\n" + rs_df.explain())
    band_ops_tour(load_geotiff_image(session, raw_dir, tiles_per_partition=32))

    # The online counterparts (Table VIII): the same NDI appended on the
    # fly by a transform, plus a NIR / red ratio band.
    raw_tile = load_geotiff_image(session, raw_dir).take(1)[0]["tile"]
    online = Compose(
        [AppendNormalizedDifferenceIndex(7, 3), AppendRatioIndex(7, 3)]
    )(raw_tile.data)
    offline = load_geotiff_image(session, out_dir).take(1)[0]["tile"]
    print(
        f"online transforms: {online.shape[0]} bands; NDI band equals the "
        f"offline one: {np.array_equal(online[13], offline.band(13))}"
    )
    texture = glcm_features(raw_tile.band(0))
    print("GLCM texture of band 0: " + ", ".join(
        f"{name} {value:.3f}" for name, value in texture.items()
    ))

    # Section III-C: attach labels and stream training batches via the
    # DFtoTorch converter (DF Formatter + Row Transformer).
    pre_df = load_geotiff_image(session, out_dir, tiles_per_partition=32)

    def attach_labels(part: Partition) -> Partition:
        names = part.columns["name"]
        idx = np.asarray(
            [int(str(n).split("_")[1].split(".")[0]) for n in names]
        )
        return part.with_column("label", labels[idx])

    labeled = pre_df.map_partitions(attach_labels, label="attach_labels")
    converter = DFToTorchConverter(
        ClassificationSpec(tile_column="tile", label_column="label")
    )
    batches = converter.convert(labeled, batch_size=16)

    model = SatCNN(14, 32, 32, num_classes=10, rng=0)
    optimizer = Adam(model.parameters(), lr=1e-3)
    loss_fn = CrossEntropyLoss()
    print("training SatCNN from streamed DataFrame batches ...")
    for epoch in range(3):
        total, steps = 0.0, 0
        for x, y in batches:
            logits = model(x)
            loss = loss_fn(logits, y)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            total += loss.item()
            steps += 1
        print(f"epoch {epoch + 1}: mean loss {total / steps:.4f}")


if __name__ == "__main__":
    main()
