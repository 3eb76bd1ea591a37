"""The ``.rtif`` on-disk raster format and raster DataFrames.

``.rtif`` is this reproduction's GeoTIFF analogue: one self-describing
blob per tile.

====== ==== =========================================================
offset size field
====== ==== =========================================================
0      4    magic ``b"RTIF"``
4      1    format version (``1``)
5      4    header length ``H``, uint32 little-endian
9      4    CRC-32 of every byte after the prefix (header + payload)
13     H    UTF-8 JSON header: ``shape``, ``crs``, ``nodata``,
            ``name``, ``envelope`` (``[min_x, max_x, min_y, max_y]``
            or ``null``)
13 + H rest one zlib stream of the pixels as byte planes
====== ==== =========================================================

The payload is the float predictor real float GeoTIFFs use, first
step: the little-endian float32 pixels are regrouped into four planes
— every byte 0, then every byte 1, … — before deflate.  Interleaved,
the mantissa bytes make the whole stream look like noise; in planes
the sign/exponent bytes sit together in runs.  Deflate's run-length
strategy (``Z_RLE``) codes those runs and Huffman-codes the rest
without searching a dictionary for matches the mantissa planes do not
contain, so a tile is both smaller and several times faster to write
than level 6 over the interleaved bytes (``docs/PERFORMANCE.md`` §J).
Predictor and strategy are constants of the format, not options; any
zlib stream of the planes is readable.  A reader rejects, with
:class:`RtifError`, a file whose prefix, checksum, header, stream or
decoded length (``4 * prod(shape)``) is wrong, so it never returns
pixels it cannot vouch for.

``load_raster_folder`` scans a directory of tiles into an engine
DataFrame whose rows are whole tiles — the layout the paper's
distributed raster preprocessing operates on (one tile per row, one
folder chunk per partition).
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib

import numpy as np

from repro.engine.dataframe import DataFrame
from repro.engine.partition import Partition
from repro.engine.plan import Source
from repro.engine.schema import Field, Schema
from repro.geometry.envelope import Envelope
from repro.spatial.raster import RasterTile
from repro.utils.validation import check_positive

RTIF_EXTENSION = ".rtif"

_MAGIC = b"RTIF"
_VERSION = 1
_PREFIX = struct.Struct("<4sBII")  # magic, version, header length, CRC-32
# How the planes are deflated.  Run-length matching is all this data
# rewards: the sign/exponent planes are runs, the mantissa planes are
# noise in which a dictionary search finds nothing worth its time.
# (Under Z_RLE every non-zero level runs the same coder.)
_STRATEGY = zlib.Z_RLE


class RtifError(ValueError):
    """A file is not a readable ``.rtif`` tile: truncated, not written
    by :func:`write_rtif`, or damaged since."""


def write_rtif(tile: RasterTile, path: str) -> str:
    """Write one tile; returns the final path (extension enforced).

    The blob (layout in the module docstring) is built in memory — one
    deflate pass over the byte planes — written to ``<path>.tmp``
    and renamed over ``path``, so a failed or killed write leaves
    either the previous tile or none, never half of one; the ``.tmp``
    name does not end in ``RTIF_EXTENSION``, so folder scans skip a
    leftover.  Compressed like real GeoTIFF tiles: decoding still
    costs real CPU — inflate + un-shuffle — which is what the
    Table VIII offline-pretransformation experiment trades away.
    """
    if not path.endswith(RTIF_EXTENSION):
        path = path + RTIF_EXTENSION
    pixels = np.ascontiguousarray(tile.data, dtype="<f4")
    envelope = tile.envelope
    header = json.dumps(
        {
            "shape": pixels.shape,
            "crs": tile.crs,
            "nodata": tile.nodata,
            "name": tile.name,
            "envelope": (
                [envelope.min_x, envelope.max_x, envelope.min_y, envelope.max_y]
                if envelope is not None
                else None
            ),
        },
        ensure_ascii=False,
        separators=(",", ":"),
    ).encode("utf-8")
    planes = pixels.reshape(-1, 1).view(np.uint8).T  # (4, pixels)
    deflate = zlib.compressobj(strategy=_STRATEGY)
    payload = deflate.compress(np.ascontiguousarray(planes)) + deflate.flush()
    checksum = zlib.crc32(payload, zlib.crc32(header))
    prefix = _PREFIX.pack(_MAGIC, _VERSION, len(header), checksum)
    temporary = path + ".tmp"
    with open(temporary, "wb") as handle:
        handle.write(prefix + header + payload)
    os.replace(temporary, path)
    return path


def read_rtif(path: str) -> RasterTile:
    """Read one tile previously written by :func:`write_rtif`.

    Raises :class:`RtifError`, naming the path and the failed check,
    for anything that is not an intact tile.
    """
    with open(path, "rb") as handle:
        blob = memoryview(handle.read())

    def bad(reason: str) -> RtifError:
        return RtifError(f"{path}: not a readable {RTIF_EXTENSION} tile: {reason}")

    if len(blob) < _PREFIX.size:
        raise bad(
            f"file is {len(blob)} bytes, shorter than the "
            f"{_PREFIX.size}-byte prefix"
        )
    magic, version, header_len, checksum = _PREFIX.unpack_from(blob)
    if magic != _MAGIC:
        raise bad(f"magic is {magic!r}, expected {_MAGIC!r}")
    if version != _VERSION:
        raise bad(f"format version {version} is unknown (this reader knows {_VERSION})")
    payload_at = _PREFIX.size + header_len
    if payload_at > len(blob):
        raise bad(
            f"header length {header_len} runs past the end of a "
            f"{len(blob)}-byte file"
        )
    if zlib.crc32(blob[_PREFIX.size :]) != checksum:
        raise bad("checksum mismatch over header and payload")
    try:
        meta = json.loads(bytes(blob[_PREFIX.size : payload_at]))
        shape = tuple(meta["shape"])
        envelope = Envelope(*meta["envelope"]) if meta["envelope"] else None
        crs, nodata, name = meta["crs"], meta["nodata"], meta["name"]
    except (ValueError, KeyError, TypeError) as exc:
        raise bad(f"header is not the expected JSON object ({exc!r})") from exc
    # JSON ``true`` is a Python bool, an int subclass: test the type.
    if not all(type(n) is int and n >= 0 for n in shape):
        raise bad(f"header shape {list(shape)} is not a list of non-negative integers")
    nbytes = 4 * math.prod(shape)
    try:
        raw = zlib.decompress(blob[payload_at:])
    except zlib.error as exc:
        raise bad(f"payload does not inflate ({exc})") from exc
    if len(raw) != nbytes:
        raise bad(
            f"payload decodes to {len(raw)} bytes, shape {shape} needs {nbytes}"
        )
    # Un-shuffle straight into the array the tile will own, one strided
    # store per plane (a single transposed assignment runs 4-byte inner
    # loops and takes four times as long).
    data = np.empty(shape, dtype="<f4")
    interleaved = data.reshape(-1, 1).view(np.uint8)  # (pixels, 4)
    for k, plane in enumerate(np.frombuffer(raw, dtype=np.uint8).reshape(4, -1)):
        interleaved[:, k] = plane
    return RasterTile(data=data, envelope=envelope, crs=crs, nodata=nodata, name=name)


def _raster_schema() -> Schema:
    return Schema(
        [
            Field("name", np.dtype(object)),
            Field("tile", np.dtype(object)),
            Field("n_bands", np.dtype(np.int64)),
            Field("height", np.dtype(np.int64)),
            Field("width", np.dtype(np.int64)),
        ]
    )


def _tiles_to_partition(paths: list) -> Partition:
    from repro import obs

    with obs.tracer.span("spatial.rtif.read_partition") as span:
        tiles = [read_rtif(p) for p in paths]
        span.add("tiles", len(tiles))
        span.add("bytes_disk", sum(os.path.getsize(p) for p in paths))
        span.add("bytes_raw", sum(t.data.nbytes for t in tiles))
    names = np.empty(len(tiles), dtype=object)
    objs = np.empty(len(tiles), dtype=object)
    for i, (path, tile) in enumerate(zip(paths, tiles)):
        names[i] = tile.name or os.path.basename(path)
        objs[i] = tile
    return Partition(
        {
            "name": names,
            "tile": objs,
            "n_bands": np.asarray([t.num_bands for t in tiles], dtype=np.int64),
            "height": np.asarray([t.height for t in tiles], dtype=np.int64),
            "width": np.asarray([t.width for t in tiles], dtype=np.int64),
        }
    )


def load_raster_folder(
    session,
    folder: str,
    tiles_per_partition: int = 64,
) -> DataFrame:
    """Scan a folder of ``.rtif`` tiles as a raster DataFrame.

    Tiles are read lazily, ``tiles_per_partition`` (a positive
    integer) at a time, during execution — never all at once.
    """
    if isinstance(tiles_per_partition, bool) or not isinstance(
        tiles_per_partition, (int, np.integer)
    ):
        raise ValueError(
            f"tiles_per_partition must be an integer, got {tiles_per_partition!r}"
        )
    check_positive(tiles_per_partition, "tiles_per_partition")
    paths = sorted(
        os.path.join(folder, f)
        for f in os.listdir(folder)
        if f.endswith(RTIF_EXTENSION)
    )
    if not paths:
        raise FileNotFoundError(f"no {RTIF_EXTENSION} tiles in {folder}")
    factories = []
    for start in range(0, len(paths), tiles_per_partition):
        chunk = paths[start : start + tiles_per_partition]
        factories.append(lambda c=chunk: _tiles_to_partition(c))
    return DataFrame(session, Source(factories, _raster_schema()))


def write_raster_dataframe(df: DataFrame, folder: str, tile_column: str = "tile") -> int:
    """Write every tile row of a raster DataFrame into ``folder``.

    Returns the number of tiles written.  Tiles stream partition by
    partition, so the write is as out-of-core as the read.
    """
    from repro import obs

    os.makedirs(folder, exist_ok=True)
    count = 0
    # The span covers the whole stream, so it also holds whatever the
    # plan beneath ``df`` computes per partition.
    with obs.tracer.span("spatial.rtif.write_frame") as span:
        for part in df.iter_partitions():
            tiles = part.columns[tile_column]
            names = part.columns.get("name")
            for i in range(part.num_rows):
                tile = tiles[i]
                base = (
                    str(names[i]) if names is not None else f"tile_{count:06d}"
                )
                base = base.removesuffix(RTIF_EXTENSION)
                path = write_rtif(tile, os.path.join(folder, base))
                count += 1
                span.add("bytes_disk", os.path.getsize(path))
                span.add("bytes_raw", tile.data.nbytes)
        span.add("tiles", count)
    return count
