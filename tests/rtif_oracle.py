"""Reference for the ``.rtif`` tile format, written from the format
table in ``repro.spatial.raster_io``'s docstring rather than from its
code: plain ``bytes`` slicing where the codec uses strided numpy views.

The raster I/O tests hold ``write_rtif`` to :func:`decode` and
``read_rtif`` to :func:`encode` (:func:`assert_bit_exact_roundtrip`
does both), and build their damaged files with :func:`assemble`.
"""

import json
import os
import struct
import zlib

import numpy as np

from repro.spatial import RasterTile, read_rtif, write_rtif

PREFIX = struct.Struct("<4sBII")  # magic, version, header length, CRC-32


def assemble(
    header: bytes,
    payload: bytes,
    magic: bytes = b"RTIF",
    version: int = 1,
    header_len: int | None = None,
    checksum: int | None = None,
) -> bytes:
    """A tile file from its parts.  The defaults give a prefix that
    matches ``header`` and ``payload``; each override makes one field
    wrong and leaves the rest intact."""
    if header_len is None:
        header_len = len(header)
    if checksum is None:
        checksum = zlib.crc32(header + payload)
    return PREFIX.pack(magic, version, header_len, checksum) + header + payload


def planes(data) -> bytes:
    """The four byte planes of ``data`` as little-endian float32."""
    raw = np.asarray(data, dtype="<f4").tobytes()
    return b"".join(raw[k::4] for k in range(4))


def header(shape, crs="EPSG:4326", nodata=None, name="", envelope=None) -> bytes:
    meta = {
        "shape": list(shape),
        "crs": crs,
        "nodata": nodata,
        "name": name,
        "envelope": envelope,
    }
    return json.dumps(meta, ensure_ascii=False).encode("utf-8")


def encode(data, **meta) -> bytes:
    """A well-formed tile file holding ``data`` (any shape)."""
    return assemble(header(np.shape(data), **meta), zlib.compress(planes(data)))


def decode(blob: bytes) -> tuple:
    """``(meta, pixels)`` of a tile file, every check asserted."""
    magic, version, header_len, checksum = PREFIX.unpack_from(blob)
    assert (magic, version) == (b"RTIF", 1)
    assert zlib.crc32(blob[PREFIX.size :]) == checksum
    body = PREFIX.size + header_len
    meta = json.loads(blob[PREFIX.size : body].decode("utf-8"))
    shuffled = zlib.decompress(blob[body:])
    count = len(shuffled) // 4
    raw = bytes(
        shuffled[k * count + i] for i in range(count) for k in range(4)
    )
    assert len(raw) == 4 * int(np.prod(meta["shape"]))
    return meta, np.frombuffer(raw, dtype="<f4").reshape(meta["shape"])


# Bit patterns a float32 codec can mangle: signalling and quiet NaNs
# with payloads, both infinities, both zeros, the smallest and largest
# denormal, the largest finite.
SPECIAL_BITS = np.array(
    [
        0x7FA00001, 0xFFC12345, 0x7FC00000, 0x7F800000, 0xFF800000,
        0x00000000, 0x80000000, 0x00000001, 0x807FFFFF, 0x7F7FFFFF,
        0x3F800000, 0xBEAAAAAB,
    ],
    dtype=np.uint32,
)


def same_metadata(a: RasterTile, b: RasterTile) -> bool:
    def same(x, y):
        if isinstance(x, float) and isinstance(y, float) and x != x:
            return y != y
        return x == y and type(x) is type(y)

    return (
        a.envelope == b.envelope
        and a.crs == b.crs
        and a.name == b.name
        and same(a.nodata, b.nodata)
    )


LAYOUTS = ("contiguous", "transposed", "sliced", "big-endian", "float64")


def as_layout(values: np.ndarray, layout: str) -> np.ndarray:
    """``values`` (C-contiguous float32) re-laid so that the logical
    array is unchanged but the memory behind it is not."""
    if layout == "transposed":
        return np.ascontiguousarray(values.transpose(2, 1, 0)).transpose(2, 1, 0)
    if layout == "sliced":
        b, h, w = values.shape
        wide = np.full((2 * b, h, 2 * w + 1), 7.0, dtype=np.float32)
        wide[::2, :, 1::2] = values
        return wide[::2, :, 1::2]
    if layout == "big-endian":
        return values.astype(">f4")
    if layout == "float64":
        with np.errstate(invalid="ignore"):  # widening a signalling NaN
            return values.astype(np.float64)
    assert layout == "contiguous"
    return values


def assert_bit_exact_roundtrip(source: np.ndarray, folder: str, **meta) -> None:
    """write → read returns exactly the float32 bytes of ``source``,
    and each half agrees with the format reference on its own."""
    tile = RasterTile(source, **meta)
    expected = np.asarray(source, dtype="<f4")
    path = write_rtif(tile, os.path.join(folder, "t"))
    with open(path, "rb") as handle:
        blob = handle.read()
    stored_meta, stored = decode(blob)
    assert stored.tobytes() == expected.tobytes()
    assert stored_meta["shape"] == list(expected.shape)
    reference_blob = encode(
        expected,
        crs=tile.crs,
        nodata=tile.nodata,
        name=tile.name,
        envelope=stored_meta["envelope"],
    )
    for loaded in (read_rtif(path), _read_blob(reference_blob, path)):
        assert loaded.data.tobytes() == expected.tobytes()
        assert loaded.data.shape == expected.shape
        assert loaded.data.dtype == np.float32
        assert loaded.data.flags.c_contiguous
        assert loaded.data.flags.owndata
        assert loaded.data.flags.writeable
        assert same_metadata(loaded, tile)


def _read_blob(blob: bytes, path: str) -> RasterTile:
    with open(path, "wb") as handle:
        handle.write(blob)
    return read_rtif(path)
