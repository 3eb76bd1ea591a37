"""Partitioned CSV scan and write."""

from __future__ import annotations

import csv
import itertools

import numpy as np

from repro.engine.partition import Partition
from repro.engine.schema import Field, Schema


def infer_csv_schema(path: str, header: bool = True, sample_rows: int = 100) -> Schema:
    """Infer a schema by sampling leading rows.

    Ints that stay ints become int64; anything parseable as float
    becomes float64; everything else is object.
    """
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        first = next(reader)
        names = first if header else [f"c{i}" for i in range(len(first))]
        sample = list(itertools.islice(reader, sample_rows))
        if not header:
            sample.insert(0, first)
    fields = []
    for i, name in enumerate(names):
        values = [row[i] for row in sample if i < len(row)]
        fields.append(Field(name, _infer_dtype(values)))
    return Schema(fields)


def _infer_dtype(values) -> np.dtype:
    if not values:
        return np.dtype(object)
    is_int = True
    is_float = True
    for v in values:
        try:
            int(v)
        except ValueError:
            is_int = False
            try:
                float(v)
            except ValueError:
                is_float = False
                break
    if is_int:
        return np.dtype(np.int64)
    if is_float:
        return np.dtype(np.float64)
    return np.dtype(object)


def _count_data_rows(path: str, header: bool) -> int:
    with open(path, "rb") as handle:
        total = sum(1 for _ in handle)
    return total - (1 if header else 0)


def csv_partition_factories(
    path: str,
    schema: Schema,
    rows_per_partition: int = 100_000,
    header: bool = True,
) -> list:
    """Build deferred readers, one per row-range of the file."""
    total = _count_data_rows(path, header)
    factories = []
    for start in range(0, max(total, 1), rows_per_partition):
        stop = min(start + rows_per_partition, total)
        factories.append(
            lambda s=start, e=stop: _read_range(path, schema, s, e, header)
        )
    return factories


def _read_range(path: str, schema: Schema, start: int, stop: int, header: bool) -> Partition:
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        if header:
            next(reader, None)
        # Blank records are skipped only after the slice, so row ranges
        # stay aligned with _count_data_rows.
        width = len(schema.fields)
        rows = []
        for n, row in enumerate(itertools.islice(reader, start, stop), start + 1):
            if not row:
                continue
            if len(row) != width:
                raise ValueError(
                    f"{path}: record {n}: expected {width} fields, "
                    f"got {len(row)}"
                )
            rows.append(row)
    columns = {}
    for i, field in enumerate(schema.fields):
        raw = [row[i] for row in rows]
        if field.dtype.kind == "i":
            columns[field.name] = np.asarray(raw, dtype=np.int64)
        elif field.dtype.kind == "f":
            columns[field.name] = np.asarray(raw, dtype=np.float64)
        else:
            arr = np.empty(len(raw), dtype=object)
            arr[:] = raw
            columns[field.name] = arr
    if not columns:
        return Partition.empty(schema)
    return Partition(columns)


def write_csv(df, path: str) -> int:
    """Write a DataFrame to one CSV file; returns the row count."""
    names = df.columns
    count = 0
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(names)
        for part in df.iter_partitions():
            for row in part.rows():
                writer.writerow([row[name] for name in names])
                count += 1
    return count
