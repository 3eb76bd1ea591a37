"""``raster_e2e`` — Table VIII: write a raw tile store, pretransform it
offline, train one SatCNN epoch on the fly from the raw store and one
from the pretransformed store.

Why: the loader / decode / transform path sits on the blocking step
only here (per-sample ``read_rtif`` + a ``Compose`` of NDI transforms
inside the ``DataLoader``); it uses ``spatial.raster_io`` for writes as
well as reads, and convolves 16-band 32x32 inputs, a different shape
regime from ``grid_train``.
"""

from __future__ import annotations

import os
import shutil
import time

import numpy as np

from harness import (
    PROBE,
    Workload,
    eager_compute,
    require,
    step_metrics,
    train_steps,
)
from repro.core.datasets.base import RasterDataset
from repro.core.datasets.synth import generate_classification_rasters
from repro.core.models.raster import SatCNN
from repro.core.preprocessing import (
    RasterProcessing,
    load_geotiff_image,
    write_geotiff_image,
)
from repro.core.training import Trainer, classification_batch
from repro.core.transforms import AppendNormalizedDifferenceIndex, Compose
from repro.data import DataLoader
from repro.engine import Session
from repro.experiments.pretransform import LazyRtifDataset
from repro.nn import CrossEntropyLoss
from repro.optim import Adam
from repro.spatial.raster import RasterTile
from repro.spatial.raster_io import read_rtif, write_rtif

TILES = 256
CLASSES = 10
BANDS = 13
SIDE = 32
NDI_PAIRS = ((0, 1), (2, 3), (4, 5))
TILES_PER_PARTITION = 32
BATCH = 16
EPS = 1e-8  # repro.core.preprocessing.raster.indices._EPS


class RasterE2E(Workload):
    name = "raster_e2e"
    min_passes = 3
    item_unit = "tiles"

    def generate(self) -> None:
        self.tiles = self.items_per_pass = self.scaled(TILES, floor=BATCH)
        self.images, self.labels = generate_classification_rasters(
            self.tiles, CLASSES, BANDS, SIDE, SIDE, seed=self.seed
        )
        # Oracle: the three NDI bands in plain numpy.
        extra = []
        for a, b in NDI_PAIRS:
            x = self.images[:, a].astype(np.float64)
            y = self.images[:, b].astype(np.float64)
            extra.append(((x - y) / (x + y + EPS)).astype(np.float32))
        self.expected = np.concatenate(
            [self.images, np.stack(extra, axis=1)], axis=1
        )
        self.online = Compose(
            [AppendNormalizedDifferenceIndex(a, b) for a, b in NDI_PAIRS]
        )
        self.raw_dir = os.path.join(self.workdir, "raw")
        self.pre_dir = os.path.join(self.workdir, "pre")
        self.reference = None  # losses of the first pass

    # -- pipeline pieces, shared by the untraced and traced passes -------
    def _write_raw_store(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.raw_dir)
        for i in range(self.tiles):
            name = f"img_{i:05d}"
            write_rtif(
                RasterTile(self.images[i], name=name),
                os.path.join(self.raw_dir, name),
            )

    def _raw_frame(self, session):
        return load_geotiff_image(session, self.raw_dir, TILES_PER_PARTITION)

    @staticmethod
    def _append_indices(df):
        for a, b in NDI_PAIRS:
            df = RasterProcessing.append_normalized_difference_index(df, a, b)
        return df

    def _online_dataset(self):
        return LazyRtifDataset(self.raw_dir, self.labels, transform=self.online)

    def _bulk_load(self, session) -> np.ndarray:
        columns = load_geotiff_image(
            session, self.pre_dir, TILES_PER_PARTITION
        ).to_columns()
        order = np.argsort(columns["name"])
        return np.stack([columns["tile"][i].data for i in order])

    def _leg(self, dataset):
        loader = DataLoader(dataset, batch_size=BATCH, shuffle=True, rng=self.seed)
        model = SatCNN(BANDS + len(NDI_PAIRS), SIDE, SIDE, CLASSES, rng=self.seed)
        return loader, model, Adam(model.parameters(), lr=1e-3)

    def _epoch(self, dataset) -> tuple:
        loader, model, optimizer = self._leg(dataset)
        trainer = Trainer(
            model, optimizer, CrossEntropyLoss(), classification_batch
        )
        started = time.perf_counter()
        loss = trainer.train_epoch(loader)
        return loss, time.perf_counter() - started

    def run_pass(self) -> dict:
        self._write_raw_store()
        session = Session(default_parallelism=4)
        write_geotiff_image(
            self._append_indices(self._raw_frame(session)), self.pre_dir
        )
        online_loss, online_s = self._epoch(self._online_dataset())
        pre_images = self._bulk_load(session)
        offline_loss, offline_s = self._epoch(
            RasterDataset(pre_images, self.labels)
        )
        return {
            "pre_images": pre_images,
            "losses": {"online": online_loss, "offline": offline_loss},
            "legs": {
                "training.epoch_s.satcnn_online": online_s,
                "training.epoch_s.satcnn_offline": offline_s,
            },
        }

    def check(self, result: dict) -> None:
        pre = result["pre_images"]
        require(
            np.array_equal(pre, self.expected),
            "pretransformed store differs from the numpy NDI reference",
        )
        probe = range(0, self.tiles, max(1, self.tiles // 16))
        require(
            all(
                np.array_equal(pre[i], self.online(self.images[i]))
                for i in probe
            ),
            "pretransformed tile differs from the online transform",
        )
        losses = result["losses"]
        require(
            all(np.isfinite(v) for v in losses.values()),
            f"non-finite epoch loss {losses}",
        )
        if self.reference is None:
            self.reference = losses
        require(
            losses == self.reference,
            f"epoch losses changed across passes: {losses} vs {self.reference}",
        )

    def _traced_epoch(self, tr, tag: str, dataset) -> float:
        with tr.span(f"training.leg_build.{tag}", "core.training"):
            loader, model, optimizer = self._leg(dataset)
            model.train()
            loss_fn = CrossEntropyLoss()
        return train_steps(
            tr, tag, loader, classification_batch, optimizer.zero_grad,
            eager_compute(tr, tag, model, loss_fn), optimizer.step,
        )

    def traced_pass(self, tr) -> dict:
        raster = "core.preprocessing.raster"
        with tr.span("raster_e2e.pass", "bench"):
            with tr.span("spatial.rtif_write", "spatial"):
                self._write_raw_store()
            with tr.span("engine.plan_build", "engine"):
                session = Session(default_parallelism=4)
                raw_df = self._raw_frame(session)
            # Source factories decode tiles (raster_io); map bodies are
            # RasterProcessing code.
            raw = tr.materialise("rasterproc.load", raw_df, {"Source[": "spatial"})
            transformed = tr.materialise(
                "rasterproc.ndi", self._append_indices(raw),
                {"MapPartitions[append_ndi": raster},
            )
            with tr.span("rasterproc.write", raster):
                write_geotiff_image(transformed, self.pre_dir)
            with tr.span("training.dataset.online", "data"):
                online = self._online_dataset()
            online_loss = self._traced_epoch(tr, "satcnn.online", online)
            with tr.span("rasterproc.bulk_load", "spatial"):
                pre_images = self._bulk_load(session)
            with tr.span("training.dataset.offline", "data"):
                offline = RasterDataset(pre_images, self.labels)
            offline_loss = self._traced_epoch(tr, "satcnn.offline", offline)
        return {
            "pre_images": pre_images,
            "losses": {"online": online_loss, "offline": offline_loss},
        }

    def probes(self, tr) -> None:
        paths = self._online_dataset().paths
        with tr.span("spatial.rtif_read", "spatial"):
            tiles = [read_rtif(path) for path in paths]
        with tr.span("transforms.ndi", "core.transforms"):
            for tile in tiles:
                self.online(tile.data)
        self.store_bytes = sum(os.path.getsize(path) for path in paths)

    def layer_metrics(self, ctx) -> dict:
        tr = ctx.tr
        read_s = tr.total("spatial.rtif_read", PROBE)
        wait_online = tr.total("data.loader_wait.satcnn.online")
        return {
            **ctx.legs,  # training.epoch_s.*, untraced
            **step_metrics(tr, "satcnn"),
            "engine.plan_build_s": tr.total("engine.plan_build"),
            "spatial.rtif_write_s": tr.total("spatial.rtif_write"),
            "spatial.rtif_read_s": read_s,
            "spatial.rtif_read_tiles_per_s": self.tiles / read_s,
            "spatial.store_bytes_per_tile": self.store_bytes / self.tiles,
            "rasterproc.load_s": tr.total("rasterproc.load"),
            "rasterproc.ndi_s": tr.total("rasterproc.ndi"),
            "rasterproc.write_s": tr.total("rasterproc.write"),
            "data.loader_wait_s.online": wait_online,
            "data.loader_wait_s.offline": tr.total(
                "data.loader_wait.satcnn.offline"
            ),
            "data.loader_wait_share.online": wait_online
            / tr.total("training.epoch.satcnn.online"),
            "transforms.ndi_s": tr.total("transforms.ndi", PROBE),
            "tensor.pool_hit_rate": ctx.pool_hit_rate,
        }
