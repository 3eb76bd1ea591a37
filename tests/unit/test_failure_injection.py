"""Failure injection: corrupted files, malformed rows, hostile inputs.

The system should fail loudly and precisely, never silently corrupt.
"""

import os
import zlib

import numpy as np
import pytest

from repro.core.datasets import DatasetCacheError
from repro.core.datasets.base import load_or_generate
from repro.core.datasets.grid import BikeNYCDeepSTN
from repro.core.preprocessing import load_geotiff_image
from repro.engine import Session
from repro.spatial import RasterTile, load_raster_folder, read_rtif, write_rtif
from repro.spatial.raster_io import RTIF_EXTENSION, RtifError
from tests import rtif_oracle


class TestCorruptRasterFiles:
    """Every way a tile file can be wrong is an ``RtifError`` naming
    the path and the failed check — and never a tile."""

    PIXELS = np.arange(32, dtype=np.float32).reshape(2, 4, 4)

    def _tile_file(self, tmp_path) -> tuple:
        path = write_rtif(
            RasterTile(self.PIXELS, name="good"), str(tmp_path / "tile")
        )
        with open(path, "rb") as handle:
            return path, handle.read()

    def _read_damaged(self, path: str, blob: bytes, match=None) -> None:
        with open(path, "wb") as handle:
            handle.write(blob)
        with pytest.raises(RtifError, match=match) as caught:
            read_rtif(path)
        assert path in str(caught.value)

    def test_truncated_rtif(self, tmp_path):
        path, blob = self._tile_file(tmp_path)
        header_len = rtif_oracle.PREFIX.unpack_from(blob)[2]
        body = rtif_oracle.PREFIX.size + header_len
        for cut, check in (
            (0, "shorter than the 13-byte prefix"),
            (2, "shorter than the 13-byte prefix"),  # inside the magic
            (12, "shorter than the 13-byte prefix"),
            (13, "runs past the end"),
            (body - 1, "runs past the end"),  # inside the header
            (body, "checksum mismatch"),  # header whole, no payload
            (body + 5, "checksum mismatch"),  # inside the payload
            (len(blob) - 1, "checksum mismatch"),  # last byte gone
        ):
            self._read_damaged(path, blob[:cut], check)
        for cut in range(len(blob)):
            self._read_damaged(path, blob[:cut])

    def test_garbage_rtif(self, tmp_path):
        path = str(tmp_path / "junk") + RTIF_EXTENSION
        self._read_damaged(path, b"this is not a raster tile", "magic")

    def test_any_flipped_byte_is_detected(self, tmp_path):
        path, blob = self._tile_file(tmp_path)
        body = rtif_oracle.PREFIX.size + rtif_oracle.PREFIX.unpack_from(blob)[2]
        for position, check in (
            (0, "magic"),
            (4, "format version"),
            (9, "checksum mismatch"),  # the stored CRC itself
            (20, "checksum mismatch"),  # a header byte
            (body + 3, "checksum mismatch"),  # a payload byte
        ):
            damaged = bytearray(blob)
            damaged[position] ^= 0x01
            self._read_damaged(path, bytes(damaged), check)
        for position in range(len(blob)):
            damaged = bytearray(blob)
            damaged[position] ^= 0x40
            self._read_damaged(path, bytes(damaged))

    def test_each_check_behind_a_valid_checksum(self, tmp_path):
        # Files whose CRC matches what they hold, so the later checks
        # are the ones that must refuse them.
        path = str(tmp_path / "crafted") + RTIF_EXTENSION
        header = rtif_oracle.header(self.PIXELS.shape)
        payload = zlib.compress(rtif_oracle.planes(self.PIXELS))
        for blob, check in (
            (rtif_oracle.assemble(header, payload, version=2), "format version 2"),
            (rtif_oracle.assemble(b"{not json", payload), "header"),
            (rtif_oracle.assemble(b"\xff\xfe", payload), "header"),
            (rtif_oracle.assemble(b'{"crs": "x"}', payload), "header"),
            (rtif_oracle.assemble(header, payload[:-6]), "does not inflate"),
            (rtif_oracle.assemble(header, b"no stream"), "does not inflate"),
            (
                rtif_oracle.assemble(
                    rtif_oracle.header((3, 4, 4)), payload
                ),
                r"decodes to 128 bytes, shape \(3, 4, 4\) needs 192",
            ),
            (
                rtif_oracle.assemble(
                    rtif_oracle.header((1, 4, 4)), payload
                ),
                r"decodes to 128 bytes, shape \(1, 4, 4\) needs 64",
            ),
        ):
            self._read_damaged(path, blob, check)
        # The same parts, assembled untouched, are a tile.
        with open(path, "wb") as handle:
            handle.write(rtif_oracle.assemble(header, payload))
        assert np.array_equal(read_rtif(path).data, self.PIXELS)

    @pytest.mark.parametrize(
        "shape, pixels",
        [((-1, -4), 4), ((2.0,), 2), ((True, 2), 2), (("2",), 2), ((2, None), 2)],
    )
    def test_shape_entries_must_be_non_negative_integers(
        self, tmp_path, shape, pixels
    ):
        # The payload decodes to exactly 4 * prod(shape) bytes, so only
        # the shape check stands between these files and numpy.
        path = str(tmp_path / "shaped") + RTIF_EXTENSION
        payload = zlib.compress(bytes(4 * pixels))
        blob = rtif_oracle.assemble(rtif_oracle.header(shape), payload)
        self._read_damaged(path, blob, "not a list of non-negative integers")

    def test_inflate_failure_keeps_its_cause(self, tmp_path):
        path = str(tmp_path / "stream") + RTIF_EXTENSION
        with open(path, "wb") as handle:
            handle.write(
                rtif_oracle.assemble(rtif_oracle.header((1, 1, 1)), b"junk")
            )
        with pytest.raises(RtifError) as caught:
            read_rtif(path)
        assert isinstance(caught.value.__cause__, zlib.error)

    def test_corrupt_tile_in_folder_fails_scan(self, tmp_path):
        folder = str(tmp_path / "tiles")
        os.makedirs(folder)
        write_rtif(
            RasterTile(np.zeros((1, 2, 2), dtype=np.float32), name="good"),
            os.path.join(folder, "good"),
        )
        bad = os.path.join(folder, "zbad") + RTIF_EXTENSION
        with open(bad, "wb") as handle:
            handle.write(b"junk")
        session = Session()
        df = load_raster_folder(session, folder, tiles_per_partition=1)
        with pytest.raises(RtifError, match="shorter than") as caught:
            df.collect()
        assert bad in str(caught.value)

    @pytest.mark.parametrize("tiles_per_partition", [-1, 0, 1.5, True, "2"])
    def test_tiles_per_partition_must_be_a_positive_integer(
        self, tmp_path, tiles_per_partition
    ):
        folder = str(tmp_path / "tiles")
        os.makedirs(folder)
        for i in range(3):
            write_rtif(
                RasterTile(np.zeros((1, 2, 2), dtype=np.float32)),
                os.path.join(folder, f"t{i}"),
            )
        session = Session()
        for load in (load_raster_folder, load_geotiff_image):
            with pytest.raises(ValueError, match="tiles_per_partition"):
                load(session, folder, tiles_per_partition=tiles_per_partition)
        rows = load_raster_folder(
            session, folder, tiles_per_partition=np.int64(2)
        ).collect()
        assert len(rows) == 3

    def test_rtif_missing_bands_axis(self, tmp_path):
        # A well-formed file whose shape breaks the 3-D contract fails
        # at construction, not deep inside training.  (The match string
        # must not be satisfiable by this test's own tmp_path.)
        path = str(tmp_path / "flat") + RTIF_EXTENSION
        with open(path, "wb") as handle:
            handle.write(rtif_oracle.encode(np.zeros((4, 4), dtype=np.float32)))
        with pytest.raises(ValueError, match=r"\(bands, height, width\)"):
            read_rtif(path)


class TestMalformedCsv:
    def test_bad_row_inside_sample_widens_type(self, tmp_path):
        # A malformed value within the inference sample degrades the
        # column to object (graceful) rather than raising later.
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2.0\nnot_a_number,3.0\n")
        session = Session()
        rows = session.read_csv(str(path)).collect()
        assert rows[1]["a"] == "not_a_number"

    def test_bad_row_beyond_sample_raises(self, tmp_path):
        # Inference typed the column from clean leading rows; a
        # malformed value later must raise during the scan, not
        # silently become garbage.
        path = tmp_path / "bad_tail.csv"
        lines = ["a,b"] + [f"{i},{i}.0" for i in range(150)]
        lines.append("not_a_number,3.0")
        path.write_text("\n".join(lines) + "\n")
        session = Session()
        df = session.read_csv(str(path))
        with pytest.raises(ValueError):
            df.collect()

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1,2\n3\n")
        session = Session()
        df = session.read_csv(str(path))
        with pytest.raises(
            ValueError, match=r"ragged\.csv: record 2: expected 2 fields, got 1"
        ):
            df.collect()


class TestCorruptDatasetCache:
    """The cache under ``root/<name>/`` is ``data.npz`` plus the
    ``config.json`` that made it: a damaged one is a typed error that
    leaves the file alone, a half-made one is regenerated, and a failed
    write leaves the previous one loadable."""

    def test_corrupt_npz_detected(self, tmp_path):
        root = str(tmp_path)
        BikeNYCDeepSTN(root, num_steps=50)
        data_path = os.path.join(root, "bike_nyc_deepstn", "data.npz")
        with open(data_path, "wb") as handle:
            handle.write(b"corrupted")
        with pytest.raises(DatasetCacheError) as caught:
            BikeNYCDeepSTN(root, num_steps=50)
        assert data_path in str(caught.value)
        with open(data_path, "rb") as handle:
            assert handle.read() == b"corrupted"  # left as found

    @pytest.mark.parametrize("damage", [b"", b"PK\x03\x04 cut short"])
    def test_truncated_npz_is_the_same_error(self, tmp_path, damage):
        root = str(tmp_path)
        BikeNYCDeepSTN(root, num_steps=50)
        data_path = os.path.join(root, "bike_nyc_deepstn", "data.npz")
        with open(data_path, "wb") as handle:
            handle.write(damage)
        with pytest.raises(DatasetCacheError, match="data.npz"):
            BikeNYCDeepSTN(root, num_steps=50)

    def test_npz_without_config_is_regenerated(self, tmp_path):
        root = str(tmp_path)
        directory = os.path.join(root, "bike_nyc_deepstn")
        BikeNYCDeepSTN(root, num_steps=60)
        os.remove(os.path.join(directory, "config.json"))
        # data.npz holds 60 steps; with no config to vouch for it, a
        # 50-step request must not get them.
        assert BikeNYCDeepSTN(root, num_steps=50).num_timesteps == 50
        assert sorted(os.listdir(directory)) == ["config.json", "data.npz"]

    def test_failed_write_keeps_the_old_cache(self, tmp_path, monkeypatch):
        root = str(tmp_path)
        directory = os.path.join(root, "bike_nyc_deepstn")
        old = BikeNYCDeepSTN(root, num_steps=50).frames

        def disk_full(handle, **arrays):
            handle.write(b"PK\x03\x04 partial")
            raise OSError(28, "No space left on device")

        with monkeypatch.context() as patch:
            patch.setattr(np, "savez", disk_full)
            with pytest.raises(OSError, match="No space"):
                BikeNYCDeepSTN(root, num_steps=70)
        assert sorted(os.listdir(directory)) == ["config.json", "data.npz"]
        again = BikeNYCDeepSTN(root, num_steps=50, download=False)
        np.testing.assert_array_equal(again.frames, old)

    def test_raster_cache_shares_the_rules(self, tmp_path):
        from repro.core.datasets.raster import SAT4

        root = str(tmp_path)
        SAT4(root, num_images=8)
        data_path = os.path.join(root, "sat4", "data.npz")
        with open(data_path, "wb") as handle:
            handle.write(b"corrupted")
        with pytest.raises(DatasetCacheError, match="sat4"):
            SAT4(root, num_images=8)

    def test_stale_config_triggers_regeneration(self, tmp_path):
        root = str(tmp_path)
        BikeNYCDeepSTN(root, num_steps=50)
        config_path = os.path.join(root, "bike_nyc_deepstn", "config.json")
        with open(config_path, "w") as handle:
            handle.write('{"something": "else"}')
        # Mismatched config regenerates instead of loading stale data.
        ds = BikeNYCDeepSTN(root, num_steps=60)
        assert ds.num_timesteps == 60


class TestDatasetCacheConfig:
    def test_numpy_scalars_key_the_same_cache(self, tmp_path):
        """A config holding numpy scalars is written as plain JSON
        numbers, so it names the same cache as the plain config."""
        calls = []

        def generate():
            calls.append(1)
            return {"a": np.arange(3)}

        config = {"n": np.int64(3), "f": np.float32(0.5)}
        load_or_generate(str(tmp_path), config, generate, download=True)
        out = load_or_generate(
            str(tmp_path), {"n": 3, "f": 0.5}, generate, download=True
        )
        assert len(calls) == 1
        assert out["a"].tolist() == [0, 1, 2]

    def test_non_json_config_value_rejected(self, tmp_path):
        with pytest.raises(TypeError, match="not JSON"):
            load_or_generate(
                str(tmp_path), {"bad": object()}, dict, download=True
            )


class TestHostileModelInputs:
    def test_nan_input_propagates_not_crashes(self, rng):
        from repro.core.models.raster import SatCNN
        from repro.tensor import Tensor

        model = SatCNN(2, 8, 8, 3, base_filters=4, rng=0)
        model.eval()
        x = np.full((1, 2, 8, 8), np.nan, dtype=np.float32)
        out = model(Tensor(x))
        assert np.isnan(out.data).any()

    def test_zero_length_batch_rejected_by_collate(self):
        from repro.data.dataloader import default_collate

        with pytest.raises(IndexError):
            default_collate([])
