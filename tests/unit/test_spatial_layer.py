"""The spatial join and raster I/O."""

import os

import numpy as np
import pytest

from repro.core.preprocessing.grid import SpacePartition
from repro.engine import Session
from repro.geometry import Envelope, Polygon, STRTree
from repro.spatial import (
    RasterTile,
    load_raster_folder,
    read_rtif,
    spatial_join_points_polygons,
    write_raster_dataframe,
    write_rtif,
)
from repro.spatial import spatial_join as spatial_join_module
from tests.spatial_oracle import oracle_join


@pytest.fixture
def session():
    return Session(default_parallelism=2)


@pytest.fixture
def points_df(session, rng):
    return session.create_dataframe(
        {
            "lon": rng.uniform(0, 10, 50),
            "lat": rng.uniform(0, 10, 50),
        }
    )


class TestSpatialJoin:
    def test_matches_brute_force(self, points_df):
        polygons = SpacePartition.generate_grid_cells(
            Envelope(0, 10, 0, 10), 3, 3
        )
        indexed = spatial_join_points_polygons(
            points_df, polygons, "lon", "lat", use_index=True
        ).collect()
        brute = spatial_join_points_polygons(
            points_df, polygons, "lon", "lat", use_index=False
        ).collect()
        key = lambda r: (r["lon"], r["lat"], r["polygon_id"])
        assert sorted(map(key, indexed)) == sorted(map(key, brute))

    def test_nonmatching_points_dropped(self, session):
        df = session.create_dataframe({"lon": [0.5, 50.0], "lat": [0.5, 50.0]})
        polygons = SpacePartition.generate_grid_cells(Envelope(0, 1, 0, 1), 1, 1)
        out = spatial_join_points_polygons(df, polygons, "lon", "lat")
        rows = out.collect()
        assert len(rows) == 1 and rows[0]["polygon_id"] == 0

    def test_requires_polygons(self, points_df):
        with pytest.raises(ValueError):
            spatial_join_points_polygons(points_df, [], "lon", "lat")

    @staticmethod
    def _overlapping_triangles(rng, count=40):
        corners = rng.uniform(0, 10, (count, 1, 2)) + rng.uniform(-3, 3, (count, 3, 2))
        return [Polygon([tuple(v) for v in tri]) for tri in corners]

    def test_overlap_lowest_id_wins_on_both_arms(self, session, rng):
        """Regression: the indexed arm used to emit the first match in
        STR-tree traversal order, the brute-force arm the lowest id."""
        zones = self._overlapping_triangles(rng)
        xs, ys = rng.uniform(0, 10, 2000), rng.uniform(0, 10, 2000)
        df = session.create_dataframe({"lon": xs, "lat": ys})
        rows, ids, _ = oracle_join(xs, ys, zones)
        assert len(np.unique(ids)) > 10 and len(rows) > 1000
        for use_index in (True, False):
            out = spatial_join_points_polygons(
                df, zones, "lon", "lat", use_index=use_index
            ).to_columns()
            assert out["polygon_id"].tolist() == ids.tolist()
            assert out["lon"].tolist() == xs[rows].tolist()

    @pytest.mark.parametrize("use_index", [True, False])
    def test_many_chunks_per_partition(self, session, rng, monkeypatch, use_index):
        """A partition far larger than one chunk: row positions and ids
        survive the per-chunk offsets."""
        monkeypatch.setattr(spatial_join_module, "_CHUNK_PAIRS", 64)
        zones = self._overlapping_triangles(rng, count=12)
        xs, ys = rng.uniform(-1, 11, 700), rng.uniform(-1, 11, 700)
        df = session.create_dataframe(
            {"lon": xs, "lat": ys, "row": np.arange(700)}, num_partitions=1
        )
        out = spatial_join_points_polygons(
            df, zones, "lon", "lat", use_index=use_index
        ).to_columns()
        rows, ids, _ = oracle_join(xs, ys, zones)
        assert out["row"].tolist() == rows.tolist()
        assert out["polygon_id"].tolist() == ids.tolist()

    def test_never_falls_back_to_the_scalar_methods(self, session, rng, monkeypatch):
        def scalar_call(*args, **kwargs):
            raise AssertionError("per-row scalar method on the join's hot path")

        zones = self._overlapping_triangles(rng, count=12)
        zones += SpacePartition.generate_grid_cells(Envelope(0, 10, 0, 10), 3, 3)
        xs, ys = rng.uniform(0, 10, 300), rng.uniform(0, 10, 300)
        expected = oracle_join(xs, ys, zones)[1].tolist()
        monkeypatch.setattr(Polygon, "contains_point", scalar_call)
        monkeypatch.setattr(Envelope, "contains_point", scalar_call)
        monkeypatch.setattr(STRTree, "query_point", scalar_call)
        monkeypatch.setattr(STRTree, "query", scalar_call)
        df = session.create_dataframe({"lon": xs, "lat": ys})
        for use_index in (True, False):
            out = spatial_join_points_polygons(
                df, zones, "lon", "lat", use_index=use_index
            ).to_columns()
            assert out["polygon_id"].tolist() == expected

    def test_non_finite_coordinates_dropped(self, session):
        df = session.create_dataframe(
            {
                "lon": [0.5, np.nan, np.inf, 0.5, -np.inf, 0.25],
                "lat": [0.5, 0.5, 0.5, np.nan, 0.5, 0.75],
                "row": np.arange(6),
            }
        )
        zones = SpacePartition.generate_grid_cells(Envelope(0, 1, 0, 1), 1, 1)
        for use_index in (True, False):
            out = spatial_join_points_polygons(
                df, zones, "lon", "lat", use_index=use_index
            ).to_columns()
            assert out["row"].tolist() == [0, 5]


class TestRasterTile:
    def test_shape_validation(self):
        with pytest.raises(ValueError, match="bands"):
            RasterTile(np.zeros((4, 4)))

    def test_band_access(self):
        tile = RasterTile(np.arange(2 * 3 * 3, dtype=np.float32).reshape(2, 3, 3))
        assert tile.num_bands == 2
        assert tile.band(1)[0, 0] == 9.0
        with pytest.raises(IndexError):
            tile.band(2)

    def test_append_band(self):
        tile = RasterTile(np.zeros((2, 4, 4), dtype=np.float32))
        out = tile.append_band(np.ones((4, 4)))
        assert out.num_bands == 3
        assert tile.num_bands == 2  # original untouched
        with pytest.raises(ValueError):
            tile.append_band(np.ones((3, 3)))

    def test_delete_band(self):
        tile = RasterTile(np.stack([np.zeros((2, 2)), np.ones((2, 2))]))
        out = tile.delete_band(0)
        assert out.num_bands == 1
        assert out.band(0)[0, 0] == 1.0


class TestRasterIO:
    def test_rtif_roundtrip(self, tmp_path):
        tile = RasterTile(
            np.random.default_rng(0).random((3, 5, 7)).astype(np.float32),
            envelope=Envelope(0, 1, 2, 3),
            crs="EPSG:9999",
            nodata=-1.0,
            name="tile_a",
        )
        path = write_rtif(tile, str(tmp_path / "tile_a"))
        loaded = read_rtif(path)
        np.testing.assert_array_equal(loaded.data, tile.data)
        assert loaded.envelope == tile.envelope
        assert loaded.crs == "EPSG:9999"
        assert loaded.nodata == -1.0
        assert loaded.name == "tile_a"

    def test_folder_scan(self, session, tmp_path, rng):
        folder = str(tmp_path / "tiles")
        os.makedirs(folder)
        for i in range(5):
            write_rtif(
                RasterTile(rng.random((2, 4, 4), dtype=np.float32), name=f"t{i}"),
                os.path.join(folder, f"t{i}"),
            )
        df = load_raster_folder(session, folder, tiles_per_partition=2)
        assert df.count() == 5
        assert df.num_partitions() == 3
        rows = df.collect()
        assert all(r["n_bands"] == 2 for r in rows)
        assert all(r["height"] == 4 and r["width"] == 4 for r in rows)

    def test_empty_folder(self, session, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_raster_folder(session, str(tmp_path))

    def test_write_dataframe_roundtrip(self, session, tmp_path, rng):
        src = str(tmp_path / "src")
        dst = str(tmp_path / "dst")
        os.makedirs(src)
        originals = {}
        for i in range(3):
            tile = RasterTile(rng.random((1, 3, 3), dtype=np.float32), name=f"t{i}")
            originals[f"t{i}"] = tile.data
            write_rtif(tile, os.path.join(src, f"t{i}"))
        df = load_raster_folder(session, src)
        count = write_raster_dataframe(df, dst)
        assert count == 3
        again = load_raster_folder(session, dst)
        for row in again.collect():
            np.testing.assert_array_equal(
                row["tile"].data, originals[row["name"]]
            )
