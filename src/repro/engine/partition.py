"""Columnar partitions: the unit of parallelism and memory accounting."""

from __future__ import annotations

import numpy as np

from repro.engine.schema import Schema
from repro.utils.memory import approx_nbytes


class Partition:
    """A horizontal slice of a DataFrame stored column-wise.

    Columns are numpy arrays of equal length (``object`` dtype for
    strings / geometries).  All operators act on whole columns, so the
    per-row interpreter overhead stays out of the hot path.
    """

    __slots__ = ("columns", "num_rows")

    def __init__(self, columns: dict):
        lengths = {len(v) for v in columns.values()}
        if len(lengths) > 1:
            raise ValueError(f"column lengths differ: {lengths}")
        self.columns = {
            name: np.asarray(values) for name, values in columns.items()
        }
        self.num_rows = lengths.pop() if lengths else 0

    @classmethod
    def from_rows(cls, rows, names) -> "Partition":
        """Build from an iterable of tuples/dicts."""
        rows = list(rows)
        if rows and isinstance(rows[0], dict):
            cols = {name: [r[name] for r in rows] for name in names}
        else:
            cols = {
                name: [r[i] for r in rows] for i, name in enumerate(names)
            }
        return cls({name: _best_array(values) for name, values in cols.items()})

    @classmethod
    def empty(cls, schema: Schema) -> "Partition":
        return cls(
            {f.name: np.empty(0, dtype=f.dtype) for f in schema.fields}
        )

    @classmethod
    def _from_arrays(cls, columns: dict, num_rows: int) -> "Partition":
        """Wrap already-validated numpy arrays without re-checking
        lengths (hot path: the executor's narrow operators build every
        output partition through here)."""
        part = cls.__new__(cls)
        part.columns = columns
        part.num_rows = num_rows
        return part

    @property
    def nbytes(self) -> int:
        """Approximate bytes held by this partition.

        Object columns count their element payloads (sampled, so the
        estimate stays O(1) per column) on top of the pointer array —
        a flat per-pointer constant undercounts string/geometry columns
        badly, which would let the memory meter miss the payload size.
        """
        total = 0
        for arr in self.columns.values():
            if arr.dtype == object:
                total += arr.nbytes + _object_payload_bytes(arr)
            else:
                total += arr.nbytes
        return total

    def with_column(self, name: str, values: np.ndarray) -> "Partition":
        cols = dict(self.columns)
        cols[name] = values
        return Partition(cols)

    def rows(self):
        """Iterate rows as dicts (slow path: display, tests)."""
        names = list(self.columns)
        if not names:  # no column to zip, but the rows still exist
            yield from ({} for _ in range(self.num_rows))
        for values in zip(*self.columns.values()):
            yield dict(zip(names, values))

    def take(self, n: int) -> "Partition":
        return Partition(
            {name: arr[:n] for name, arr in self.columns.items()}
        )

    @staticmethod
    def concat(partitions) -> "Partition":
        partitions = list(partitions)
        non_empty = [p for p in partitions if p.num_rows > 0]
        if not non_empty:
            if not partitions:
                raise ValueError("cannot concat zero partitions")
            # Every input is empty: the first input already carries the
            # schema (column names and dtypes), so return it as-is
            # instead of raising — callers need no special-casing.
            return partitions[0]
        names = list(non_empty[0].columns)
        return Partition(
            {
                name: np.concatenate([p.columns[name] for p in non_empty])
                for name in names
            }
        )


_PAYLOAD_SAMPLE = 32


def _object_payload_bytes(arr: np.ndarray) -> int:
    """Estimate the payload bytes behind an object column's pointers
    by sampling up to ``_PAYLOAD_SAMPLE`` evenly-strided elements."""
    n = arr.size
    if n == 0:
        return 0
    if n <= _PAYLOAD_SAMPLE:
        return int(sum(approx_nbytes(v) for v in arr))
    sample = arr[:: n // _PAYLOAD_SAMPLE][:_PAYLOAD_SAMPLE]
    mean = sum(approx_nbytes(v) for v in sample) / len(sample)
    return int(mean * n)


def _best_array(values: list) -> np.ndarray:
    """Coerce a python list to the tightest reasonable numpy array."""
    try:
        arr = np.asarray(values)
    except (ValueError, TypeError):
        arr = np.empty(len(values), dtype=object)
        arr[:] = values
        return arr
    if arr.dtype.kind in "OUS":
        out = np.empty(len(values), dtype=object)
        out[:] = values
        return out
    if arr.ndim != 1:
        out = np.empty(len(values), dtype=object)
        out[:] = values
        return out
    return arr
