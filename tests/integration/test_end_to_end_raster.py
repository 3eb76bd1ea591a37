"""Integration: raster tile store -> distributed preprocessing ->
DFtoTorch -> training, plus the offline/online transform equivalence.
"""

import os

import numpy as np
import pytest

from repro.core.converter import ClassificationSpec, DFToTorchConverter
from repro.core.datasets.synth import generate_classification_rasters
from repro.core.models.raster import DeepSatV2
from repro.core.preprocessing import load_geotiff_image, write_geotiff_image
from repro.core.preprocessing.raster import RasterProcessing
from repro.core.transforms import AppendNormalizedDifferenceIndex
from repro.engine import Session
from repro.engine.partition import Partition
from repro.nn import CrossEntropyLoss
from repro.optim import Adam
from repro.spatial import RasterTile, write_rtif

N_IMAGES = 40


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    folder = str(tmp_path_factory.mktemp("tiles"))
    images, labels = generate_classification_rasters(
        N_IMAGES, num_classes=4, bands=6, height=16, width=16, seed=3
    )
    for i in range(N_IMAGES):
        write_rtif(
            RasterTile(images[i], name=f"img_{i:04d}"),
            os.path.join(folder, f"img_{i:04d}"),
        )
    return folder, images, labels


class TestOfflineOnlineEquivalence:
    def test_pretransformed_equals_online(self, store, tmp_path):
        folder, images, labels = store
        session = Session(default_parallelism=3)
        df = load_geotiff_image(session, folder, tiles_per_partition=16)
        df = RasterProcessing.append_normalized_difference_index(df, 0, 1)
        out_dir = str(tmp_path / "pre")
        write_geotiff_image(df, out_dir)

        pre = load_geotiff_image(session, out_dir)
        by_name = {r["name"]: r["tile"].data for r in pre.collect()}
        online = AppendNormalizedDifferenceIndex(0, 1)
        for i in range(N_IMAGES):
            name = f"img_{i:04d}"
            # Lossless store, one NDI arithmetic: equal, not close.
            np.testing.assert_array_equal(by_name[name], online(images[i]))


class TestConverterTraining:
    def test_stream_trains_model(self, store):
        folder, images, labels = store
        session = Session(default_parallelism=3)
        df = load_geotiff_image(session, folder, tiles_per_partition=16)

        def attach(part: Partition) -> Partition:
            idx = np.asarray(
                [int(str(n).split("_")[1].split(".")[0]) for n in part.columns["name"]]
            )
            return part.with_column("label", labels[idx])

        labeled = df.map_partitions(attach)
        converter = DFToTorchConverter(ClassificationSpec())
        batches = converter.convert(labeled, batch_size=8)

        model = DeepSatV2(6, 16, 16, 4, num_filtered_features=0, rng=0)
        optimizer = Adam(model.parameters(), lr=2e-3)
        loss_fn = CrossEntropyLoss()
        first_loss = last_loss = None
        for _ in range(6):
            total, steps = 0.0, 0
            for x, y in batches:
                loss = loss_fn(model(x), y)
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()
                total += loss.item()
                steps += 1
            epoch_loss = total / steps
            first_loss = first_loss if first_loss is not None else epoch_loss
            last_loss = epoch_loss
        assert last_loss < first_loss / 2
