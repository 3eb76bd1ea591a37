"""The built-in instrumentation points: spatial join, raster I/O,
DFtoTorch converter, and Trainer all reporting into ``repro.obs.registry``."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import obs
from repro.core.converter import ClassificationSpec, DFToTorchConverter
from repro.core.training import Trainer
from repro.data import DataLoader
from repro.core.preprocessing.grid import SpacePartition
from repro.engine import Session
from repro.geometry import Envelope
from repro.nn import Linear, MSELoss
from repro.optim import Adam
from repro.spatial import (
    RasterTile,
    load_raster_folder,
    read_rtif,
    spatial_join_points_polygons,
    write_raster_dataframe,
    write_rtif,
)
from repro.tensor import Tensor
from tests.spatial_oracle import oracle_join, split_on_diagonal


@pytest.fixture(autouse=True)
def clean_obs():
    obs.reset()
    obs.set_enabled(True)
    yield
    obs.reset()
    obs.set_enabled(True)


@pytest.fixture
def session():
    return Session(default_parallelism=2)


def _zone_sets() -> dict:
    grid = SpacePartition.generate_grid_cells(Envelope(0, 10, 0, 10), 2, 2)
    return {"grid": grid, "triangles": split_on_diagonal(grid)}



def _walk(span):
    """A span and every descendant, depth-first."""
    yield span
    for child in span.children:
        yield from _walk(child)

class TestSpatialJoinMetrics:
    @staticmethod
    def _points(rng):
        return rng.uniform(0, 10, 40), rng.uniform(0, 10, 40)

    def _run(self, session, rng, use_index, zones="grid", points=None):
        xs, ys = points or self._points(rng)
        joined = spatial_join_points_polygons(
            session.create_dataframe({"lon": xs, "lat": ys}),
            _zone_sets()[zones], "lon", "lat", use_index=use_index,
        )
        return joined.collect()

    def test_indexed_counters(self, session, rng):
        rows = self._run(session, rng, use_index=True)
        counters = obs.registry.snapshot()["counters"]
        assert counters["spatial_join.index_probes"] == 40
        assert counters["spatial_join.emitted_pairs"] == len(rows)
        # Every emitted pair was a candidate first.
        assert (
            counters["spatial_join.candidate_pairs"]
            >= counters["spatial_join.emitted_pairs"]
        )

    def test_brute_force_counters(self, session, rng):
        rows = self._run(session, rng, use_index=False)
        counters = obs.registry.snapshot()["counters"]
        assert counters["spatial_join.index_probes"] == 40
        assert counters["spatial_join.emitted_pairs"] == len(rows)
        assert (
            counters["spatial_join.candidate_pairs"]
            >= counters["spatial_join.emitted_pairs"]
        )

    @pytest.mark.parametrize("zones", ["grid", "triangles"])
    def test_candidate_pairs_is_what_candidate_generation_produced(
        self, session, rng, zones
    ):
        """One meaning on every zone shape and both arms: the pairs the
        index (or brute force) handed to the containment kernel — not
        the pairs tested before the first hit."""
        points, polygons = self._points(rng), _zone_sets()[zones]
        rows = self._run(session, rng, True, zones, points)
        _, _, from_index = oracle_join(*points, polygons)
        counters = obs.registry.snapshot()["counters"]
        assert counters["spatial_join.candidate_pairs"] == from_index
        assert counters["spatial_join.emitted_pairs"] == len(rows) == 40
        obs.reset()
        self._run(session, rng, False, zones, points)
        counters = obs.registry.snapshot()["counters"]
        assert counters["spatial_join.candidate_pairs"] == 40 * len(polygons)

    def test_spans_per_chunk_and_per_tree(self, session, rng):
        self._run(session, rng, use_index=True, zones="triangles")
        names = [
            span.name for root in obs.tracer.roots for span in _walk(root)
        ]
        # One tree for the join; two partitions of one chunk each.
        assert names.count("geometry.strtree.build") == 1
        assert names.count("spatial_join.probe") == 2
        assert names.count("spatial_join.contains") == 2

    def test_disabled_records_nothing(self, session, rng):
        with obs.disabled():
            self._run(session, rng, use_index=True)
        counters = obs.registry.snapshot()["counters"]
        assert counters.get("spatial_join.index_probes", 0) == 0
        assert not obs.tracer.roots


class TestRasterIoSpans:
    """One span per partition read and one per frame written, each
    carrying enough to read compression ratio and MB/s off the trace."""

    TILES, PER_PARTITION = 5, 2

    def _spans(self, name: str) -> list:
        return [
            span
            for root in obs.tracer.roots
            for span in _walk(root)
            if span.name == name
        ]

    def test_read_partition_and_write_frame(self, session, rng, tmp_path):
        src, dst = str(tmp_path / "src"), str(tmp_path / "dst")
        os.makedirs(src)
        for i in range(self.TILES):
            tile = RasterTile(rng.random((2, 4, 4), dtype=np.float32), name=f"t{i}")
            write_rtif(tile, os.path.join(src, f"t{i}"))
        assert not obs.tracer.roots  # a lone write_rtif opens no span
        df = load_raster_folder(session, src, tiles_per_partition=self.PER_PARTITION)
        assert write_raster_dataframe(df, dst) == self.TILES

        def folder_bytes(folder):
            return sum(
                os.path.getsize(os.path.join(folder, f)) for f in os.listdir(folder)
            )

        raw = self.TILES * 2 * 4 * 4 * 4
        reads = self._spans("spatial.rtif.read_partition")
        assert [s.counters["tiles"] for s in reads] == [2, 2, 1]
        assert sum(s.counters["bytes_disk"] for s in reads) == folder_bytes(src)
        assert sum(s.counters["bytes_raw"] for s in reads) == raw
        (write,) = self._spans("spatial.rtif.write_frame")
        assert write.counters == {
            "tiles": self.TILES,
            "bytes_disk": folder_bytes(dst),
            "bytes_raw": raw,
        }
        # The frame streams: its partition reads happen inside the write.
        assert all(span in list(_walk(write)) for span in reads)

    def test_per_sample_reads_stay_span_free(self, rng, tmp_path):
        path = write_rtif(
            RasterTile(rng.random((1, 2, 2), dtype=np.float32)), str(tmp_path / "t")
        )
        read_rtif(path)
        assert not obs.tracer.roots


def _tile_frame(session, rng, n=10):
    tiles = np.empty(n, dtype=object)
    for i in range(n):
        tiles[i] = rng.random((1, 4, 4)).astype(np.float32)
    return session.create_dataframe(
        {"tile": tiles, "label": rng.integers(0, 3, n)}
    )


class TestConverterMetrics:
    def test_batches_and_samples_counted(self, session, rng):
        df = _tile_frame(session, rng, n=10)
        converter = DFToTorchConverter(ClassificationSpec())
        batches = list(converter.convert(df, batch_size=4))
        counters = obs.registry.snapshot()["counters"]
        assert counters["converter.batches"] == len(batches) == 3
        assert counters["converter.samples"] == 10

    def test_shuffle_buffer_occupancy_histogram(self, session, rng):
        df = _tile_frame(session, rng, n=10)
        converter = DFToTorchConverter(ClassificationSpec())
        list(converter.convert(df, batch_size=4, shuffle_buffer=4, rng=0))
        hist = obs.registry.histogram("converter.shuffle_buffer_occupancy")
        assert hist.count > 0
        assert hist.max <= 5  # buffer never exceeds shuffle_buffer + 1

    def test_disabled_converter_records_nothing(self, session, rng):
        df = _tile_frame(session, rng, n=8)
        converter = DFToTorchConverter(ClassificationSpec())
        with obs.disabled():
            list(converter.convert(df, batch_size=4))
        counters = obs.registry.snapshot()["counters"]
        assert counters.get("converter.batches", 0) == 0


def _regression_trainer(rng, grad_clip=None):
    x = rng.random((32, 3)).astype(np.float32)
    y = (x @ np.array([[1.0], [-2.0], [0.5]], dtype=np.float32))
    loader = DataLoader(list(zip(x, y)), batch_size=8, shuffle=False)
    model = Linear(3, 1, rng=0)
    adapter = lambda batch: ((Tensor(batch[0]),), Tensor(batch[1]))
    trainer = Trainer(
        model,
        Adam(model.parameters(), lr=0.01),
        MSELoss(),
        adapter,
        grad_clip=grad_clip,
    )
    return trainer, loader


class TestTrainerMetrics:
    def test_epoch_histograms_recorded(self, rng):
        trainer, loader = _regression_trainer(rng)
        result = trainer.fit(loader, epochs=3)
        hists = obs.registry.snapshot()["histograms"]
        assert hists["trainer.epoch_seconds"]["count"] == 3
        assert hists["trainer.train_loss"]["count"] == 3
        assert hists["trainer.train_loss"]["min"] == min(result.train_losses)

    def test_epoch_spans_traced(self, rng):
        trainer, loader = _regression_trainer(rng)
        trainer.fit(loader, epochs=2)
        epochs = [s for s in obs.tracer.roots if s.name == "trainer.epoch"]
        assert len(epochs) == 2
        assert epochs[0].attrs["epoch"] == 1
        assert epochs[1].attrs["epoch"] == 2

    def test_grad_norm_recorded_when_clipping(self, rng):
        trainer, loader = _regression_trainer(rng, grad_clip=1.0)
        trainer.fit(loader, epochs=2)
        hist = obs.registry.histogram("trainer.grad_norm")
        assert hist.count == 8  # 4 batches x 2 epochs
        assert hist.min >= 0.0

    def test_training_unchanged_when_disabled(self, rng):
        trainer, loader = _regression_trainer(rng)
        with obs.disabled():
            result = trainer.fit(loader, epochs=2)
        assert len(result.train_losses) == 2
        hists = obs.registry.snapshot()["histograms"]
        assert hists.get("trainer.epoch_seconds", {"count": 0})["count"] == 0
