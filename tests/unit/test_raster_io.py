"""The ``.rtif`` codec: bit-exact round trips, the pinned on-disk
format, atomic writes and the path contract."""

import inspect
import os

import numpy as np
import pytest

from repro.engine import Session
from repro.geometry import Envelope
from repro.spatial import (
    RasterTile,
    load_raster_folder,
    read_rtif,
    write_raster_dataframe,
    write_rtif,
)
from repro.spatial import raster_io
from repro.spatial.raster_io import RTIF_EXTENSION
from tests import rtif_oracle
from tests.rtif_oracle import (
    LAYOUTS,
    SPECIAL_BITS,
    as_layout,
    assert_bit_exact_roundtrip,
)

GOLDEN = os.path.join(
    os.path.dirname(__file__), os.pardir, "data", "golden_v1.rtif"
)

@pytest.fixture
def session():
    return Session()


def golden_tile() -> RasterTile:
    data = (np.arange(24, dtype=np.float32) / 8 - 1).reshape(2, 3, 4)
    data[1, 2, 3] = np.nan
    return RasterTile(
        data,
        envelope=Envelope(-73.5, -73.25, 40.5, 40.75),
        crs="EPSG:4326",
        nodata=-1.0,
        name="tuile_é_北",
    )


class TestRoundTrip:
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_special_values_in_every_layout(self, tmp_path, layout):
        values = np.resize(SPECIAL_BITS, 2 * 3 * 5).view(np.float32)
        assert_bit_exact_roundtrip(
            as_layout(values.reshape(2, 3, 5), layout), str(tmp_path)
        )

    @pytest.mark.parametrize(
        "shape", [(0, 3, 4), (2, 0, 4), (2, 3, 0), (0, 0, 0), (1, 1, 1), (5, 5, 5)]
    )
    def test_shapes_including_empty_axes(self, tmp_path, shape):
        values = np.resize(SPECIAL_BITS, int(np.prod(shape))).view(np.float32)
        assert_bit_exact_roundtrip(values.reshape(shape), str(tmp_path))

    @pytest.mark.parametrize("nodata", [None, -1.0, float("nan")])
    @pytest.mark.parametrize("envelope", [None, Envelope(-1.5, 2.25, 0.0, 1e-9)])
    def test_metadata(self, tmp_path, nodata, envelope):
        assert_bit_exact_roundtrip(
            np.ones((1, 2, 2), dtype=np.float32),
            str(tmp_path),
            nodata=nodata,
            envelope=envelope,
            crs="EPSG:3857",
            name="tuile é 北 \"quoted\" \\ slash",
        )

    def test_source_array_is_not_touched(self, tmp_path):
        source = np.resize(SPECIAL_BITS, 24).view(np.float32).reshape(2, 3, 4)
        before = source.tobytes()
        loaded = read_rtif(write_rtif(RasterTile(source), str(tmp_path / "t")))
        loaded.data[...] = 0
        assert source.tobytes() == before


class TestPaths:
    def test_extension_is_enforced_once(self, tmp_path):
        tile = RasterTile(np.zeros((1, 2, 2), dtype=np.float32))
        bare = write_rtif(tile, str(tmp_path / "a"))
        given = write_rtif(tile, str(tmp_path / "b") + RTIF_EXTENSION)
        assert bare == str(tmp_path / "a") + RTIF_EXTENSION
        assert given == str(tmp_path / "b") + RTIF_EXTENSION
        assert sorted(os.listdir(tmp_path)) == ["a.rtif", "b.rtif"]

    def test_signatures_have_no_knob(self):
        assert str(inspect.signature(write_rtif)) == (
            "(tile: 'RasterTile', path: 'str') -> 'str'"
        )
        assert str(inspect.signature(read_rtif)) == "(path: 'str') -> 'RasterTile'"

    def test_frame_roundtrip_with_names_carrying_the_extension(
        self, session, tmp_path
    ):
        src, dst = str(tmp_path / "src"), str(tmp_path / "dst")
        os.makedirs(src)
        pixels = {}
        for i in range(3):
            name = f"t{i}{RTIF_EXTENSION}"
            pixels[name] = np.full((1, 2, 2), i, dtype=np.float32)
            write_rtif(RasterTile(pixels[name], name=name), os.path.join(src, name))
        assert sorted(os.listdir(src)) == ["t0.rtif", "t1.rtif", "t2.rtif"]
        assert write_raster_dataframe(load_raster_folder(session, src), dst) == 3
        assert sorted(os.listdir(dst)) == sorted(os.listdir(src))
        rows = load_raster_folder(session, dst).collect()
        assert sorted(r["name"] for r in rows) == sorted(pixels)
        for row in rows:
            assert np.array_equal(row["tile"].data, pixels[row["name"]])

    def test_a_store_of_the_old_extension_is_not_scanned(self, session, tmp_path):
        (tmp_path / "img_00000.rtif.npz").write_bytes(b"PK\x03\x04")
        with pytest.raises(FileNotFoundError, match=r"no \.rtif tiles"):
            load_raster_folder(session, str(tmp_path))


class _FailingHandle:
    """A binary file handle that lets ``limit`` bytes through and then
    fails, as a full disk would."""

    def __init__(self, handle, limit: int):
        self.handle, self.limit = handle, limit

    def write(self, data) -> int:
        self.handle.write(bytes(data)[: self.limit])
        raise OSError(28, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.handle.close()


class TestAtomicWrite:
    def test_failed_write_leaves_the_old_tile_and_no_new_one(
        self, session, tmp_path, monkeypatch
    ):
        folder, source = str(tmp_path / "store"), str(tmp_path / "source")
        os.makedirs(folder)
        os.makedirs(source)
        old = np.full((1, 3, 3), 1.0, dtype=np.float32)
        new = np.full((1, 3, 3), 2.0, dtype=np.float32)
        kept = write_rtif(RasterTile(old, name="kept"), os.path.join(folder, "kept"))
        # Fail past the prefix and the header, a few bytes short of whole.
        limit = os.path.getsize(kept) - 5

        def failing_open(path, mode):
            return _FailingHandle(open(path, mode), limit)

        with monkeypatch.context() as patch:
            patch.setattr(raster_io, "open", failing_open, raising=False)
            for name in ("kept", "fresh"):
                with pytest.raises(OSError, match="No space left"):
                    write_rtif(
                        RasterTile(new, name=name), os.path.join(folder, name)
                    )

        tiles = [f for f in os.listdir(folder) if f.endswith(RTIF_EXTENSION)]
        assert tiles == ["kept.rtif"]
        assert np.array_equal(read_rtif(kept).data, old)
        rows = load_raster_folder(session, folder).collect()
        assert [r["name"] for r in rows] == ["kept"]
        assert sorted(os.listdir(folder)) == [
            "fresh.rtif.tmp", "kept.rtif", "kept.rtif.tmp",
        ]

        # The leftovers do not get in the way of writing the same names.
        for name in ("kept", "fresh"):
            write_rtif(RasterTile(new, name=name), os.path.join(source, name))
        frame = load_raster_folder(session, source)
        assert write_raster_dataframe(frame, folder) == 2
        for name in ("kept", "fresh"):
            path = os.path.join(folder, name) + RTIF_EXTENSION
            assert np.array_equal(read_rtif(path).data, new)
        assert not [f for f in os.listdir(folder) if f.endswith(".tmp")]


class TestGoldenFile:
    """``tests/data/golden_v1.rtif`` pins the on-disk format: a layout
    change that does not bump the version byte fails here."""

    def test_committed_bytes_decode_to_the_literal_tile(self):
        loaded = read_rtif(GOLDEN)
        expected = np.array(
            [
                [[-1.0, -0.875, -0.75, -0.625],
                 [-0.5, -0.375, -0.25, -0.125],
                 [0.0, 0.125, 0.25, 0.375]],
                [[0.5, 0.625, 0.75, 0.875],
                 [1.0, 1.125, 1.25, 1.375],
                 [1.5, 1.625, 1.75, np.nan]],
            ],
            dtype=np.float32,
        )
        assert loaded.data.tobytes() == expected.tobytes()
        assert loaded.envelope == Envelope(-73.5, -73.25, 40.5, 40.75)
        assert loaded.crs == "EPSG:4326"
        assert loaded.nodata == -1.0
        assert loaded.name == "tuile_é_北"
        assert os.path.getsize(GOLDEN) < 300

    def test_writer_reproduces_the_committed_bytes(self, tmp_path):
        path = write_rtif(golden_tile(), str(tmp_path / "golden"))
        with open(path, "rb") as written, open(GOLDEN, "rb") as committed:
            assert written.read() == committed.read()

    def test_prefix_fields(self):
        with open(GOLDEN, "rb") as handle:
            blob = handle.read()
        magic, version, header_len, _ = rtif_oracle.PREFIX.unpack_from(blob)
        assert (magic, version) == (b"RTIF", 1)
        meta, pixels = rtif_oracle.decode(blob)
        # The name is stored as UTF-8 proper, not as \u escapes.
        assert "é_北".encode() in blob[13 : 13 + header_len]
        assert meta == {
            "shape": [2, 3, 4],
            "crs": "EPSG:4326",
            "nodata": -1.0,
            "name": "tuile_é_北",
            "envelope": [-73.5, -73.25, 40.5, 40.75],
        }
        assert pixels.tobytes() == golden_tile().data.tobytes()
