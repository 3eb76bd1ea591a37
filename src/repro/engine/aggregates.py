"""Aggregate specifications and mergeable accumulators.

Aggregation runs as Spark does: each input partition is *partially*
aggregated (vectorized), and the partial states are merged into a
global hash table keyed by the group key.  Only (num_groups) state is
ever held, never the input rows — this is the memory property Figure 8
measures.

Every aggregate here is *mergeable*: its per-partition partial is a
fixed-size summary that a two-accumulator ``merge`` combines without
seeing the input rows again.  That property is what the spill paths,
the morsel-parallel executor, and the incremental streaming layer
(:mod:`repro.engine.streaming`) all rely on — and it is why ``var`` /
``std`` carry a Chan-style ``(mean, M2)`` pair instead of a naive
sum-of-squares (numerically unstable) or the raw values
(non-mergeable), and why ``count_distinct`` carries the value *set*
rather than a count (counts of distinct values do not add).

:class:`ArrayGroupState` is the vectorized form of that merge — whole
accumulator arrays combined with ``np.unique`` + scatter updates, one
merge per partition.  Both the batch group-by executor and the
streaming ``DeltaState`` run *this exact class*, which is what makes
incrementally maintained results bit-identical to a from-scratch
recompute over the same partition boundaries: the two paths execute
the same float operations in the same order by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class AggSpec:
    """One output aggregate: ``kind`` over ``column`` named ``out_name``."""

    out_name: str
    column: str  # "*" for count
    kind: str  # count | sum | min | max | mean | var | std | count_distinct

    _KINDS = (
        "count",
        "sum",
        "min",
        "max",
        "mean",
        "var",
        "std",
        "count_distinct",
    )

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(
                f"unknown aggregate {self.kind!r}; expected one of {self._KINDS}"
            )
        if self.kind != "count" and self.column == "*":
            raise ValueError(f"aggregate {self.kind!r} needs a column")


def count(column: str = "*", name: str | None = None) -> AggSpec:
    return AggSpec(name or "count", column, "count")


def sum_(column: str, name: str | None = None) -> AggSpec:
    return AggSpec(name or f"sum_{column}", column, "sum")


def min_(column: str, name: str | None = None) -> AggSpec:
    return AggSpec(name or f"min_{column}", column, "min")


def max_(column: str, name: str | None = None) -> AggSpec:
    return AggSpec(name or f"max_{column}", column, "max")


def mean(column: str, name: str | None = None) -> AggSpec:
    return AggSpec(name or f"mean_{column}", column, "mean")


def var_(column: str, name: str | None = None) -> AggSpec:
    """Sample variance (ddof=1); NaN for groups with fewer than 2 rows."""
    return AggSpec(name or f"var_{column}", column, "var")


def std_(column: str, name: str | None = None) -> AggSpec:
    """Sample standard deviation (ddof=1); NaN below 2 rows."""
    return AggSpec(name or f"std_{column}", column, "std")


def count_distinct(column: str, name: str | None = None) -> AggSpec:
    return AggSpec(name or f"count_distinct_{column}", column, "count_distinct")


def _moment_partial(vals: np.ndarray, inverse: np.ndarray, counts):
    """Per-group (mean, M2) pairs via a two-pass bincount."""
    num_groups = len(counts)
    sums = np.bincount(inverse, weights=vals, minlength=num_groups)
    means = sums / counts
    dev = vals - means[inverse]
    m2 = np.bincount(inverse, weights=dev * dev, minlength=num_groups)
    return means, m2


def _distinct_sets(vals: np.ndarray, inverse: np.ndarray, num_groups: int):
    """Per-group sets of distinct values (object list of Python sets)."""
    order = np.argsort(inverse, kind="stable")
    sorted_inverse = inverse[order]
    sorted_vals = vals[order]
    boundaries = np.flatnonzero(np.diff(sorted_inverse)) + 1
    starts = np.concatenate(([0], boundaries))
    stops = np.concatenate((boundaries, [len(sorted_vals)]))
    sets = [set() for _ in range(num_groups)]
    for g, start, stop in zip(sorted_inverse[starts], starts, stops):
        sets[g] = set(sorted_vals[start:stop].tolist())
    return sets


# ----------------------------------------------------------------------
# Vectorized per-group state: whole accumulator arrays, scatter merges
# ----------------------------------------------------------------------
def unique_rows(rows: np.ndarray, return_counts: bool = False):
    """``np.unique`` over key rows; 1-column keys take the fast 1-D
    path instead of the void-view axis=0 machinery."""
    if rows.shape[1] == 1:
        result = np.unique(
            rows[:, 0], return_inverse=True, return_counts=return_counts
        )
        uniques = result[0][:, None]
        rest = result[1:]
    else:
        result = np.unique(
            rows, axis=0, return_inverse=True, return_counts=return_counts
        )
        uniques = result[0]
        rest = result[1:]
    inverse = rest[0].reshape(-1)
    if return_counts:
        return uniques, inverse, rest[1]
    return uniques, inverse


def _dictionary_codes(codes: dict, values: np.ndarray) -> np.ndarray:
    """int64 codes of ``values`` under the value → code dict ``codes``,
    which grows in first-seen order."""
    return np.fromiter(
        (codes.setdefault(v, len(codes)) for v in values.tolist()),
        dtype=np.int64,
        count=len(values),
    )


def empty_group_partition(keys, specs):
    from repro.engine.partition import Partition

    cols = {k: np.empty(0) for k in keys}
    cols.update({s.out_name: np.empty(0) for s in specs})
    return Partition(cols)


class ArrayGroupState:
    """Per-group accumulators held as whole arrays, merged with
    ``np.unique`` + scatter updates — one vectorized merge per
    partition.  This is the engine's only group-by state.

    ``keys`` is one numeric matrix of unique key rows.  A non-numeric
    (``O``/``U``/``S``) key column is dictionary-coded: the matrix holds
    int64 codes in first-seen order, ``_code_maps`` holds the value →
    code dict, and :meth:`to_partition` decodes.  ``key_dtypes`` is the
    dtype each key column is restored to on output.

    ``values[i]`` is the state of ``specs[i]``: a float64 array for
    sum/mean/min/max, a ``(means, m2s)`` array pair for var/std, an
    object array of Python sets for count_distinct, ``None`` for count
    (the shared ``counts`` array is its state).

    :meth:`update` returns the merged-state positions of the groups the
    incoming partition touched — the batch executor ignores this, the
    streaming :class:`~repro.engine.streaming.DeltaState` uses it to
    emit per-batch deltas.
    """

    def __init__(self, specs):
        self.specs = specs
        self.keys: np.ndarray | None = None  # (G, K) unique key rows
        self.counts: np.ndarray | None = None  # (G,) int64 rows per group
        self.values: list = [None] * len(specs)
        self.key_dtypes: list | None = None  # per key column, for output
        self._code_maps: dict = {}  # key column index -> {value: code}

    @property
    def num_groups(self) -> int:
        return 0 if self.keys is None else len(self.keys)

    @property
    def nbytes(self) -> int:
        # Rough dict-entry estimate for the dictionary-coded columns.
        total = sum(64 * len(m) for m in self._code_maps.values())
        for arr in [self.keys, self.counts]:
            if arr is not None:
                total += arr.nbytes
        for spec, value in zip(self.specs, self.values):
            if value is None:
                continue
            if spec.kind in ("var", "std"):
                total += value[0].nbytes + value[1].nbytes
            elif spec.kind == "count_distinct":
                # Rough per-set estimate: dict header + one slot/value.
                total += sum(64 + 32 * len(s) for s in value)
            else:
                total += value.nbytes
        return total

    def _partials(self, uniques, inverse, counts, part):
        partials = []
        for spec in self.specs:
            if spec.kind == "count":
                partials.append(None)
                continue
            vals = np.asarray(part.columns[spec.column], dtype=np.float64)
            if spec.kind in ("sum", "mean"):
                partial = np.bincount(
                    inverse, weights=vals, minlength=len(uniques)
                )
            elif spec.kind == "min":
                partial = np.full(len(uniques), np.inf)
                np.minimum.at(partial, inverse, vals)
            elif spec.kind == "max":
                partial = np.full(len(uniques), -np.inf)
                np.maximum.at(partial, inverse, vals)
            elif spec.kind in ("var", "std"):
                partial = _moment_partial(vals, inverse, counts)
            else:
                partial = np.empty(len(uniques), dtype=object)
                partial[:] = _distinct_sets(vals, inverse, len(uniques))
            partials.append(partial)
        return partials

    def _stack_keys(self, key_columns) -> np.ndarray:
        """One numeric ``(rows, K)`` matrix for a partition's key
        columns, folding their dtypes into ``key_dtypes``.  Numeric-only
        key sets stack as they are; a non-numeric column (or a numeric
        one arriving after its column went non-numeric) is replaced by
        its dictionary codes."""
        arrays = [np.asarray(col) for col in key_columns]
        if self.key_dtypes is None:
            self.key_dtypes = [arr.dtype for arr in arrays]
        for i, arr in enumerate(arrays):
            seen = self.key_dtypes[i]
            coded = arr.dtype.kind in "OUS"
            if seen != arr.dtype:
                self.key_dtypes[i] = (
                    np.dtype(object)
                    if coded != (seen.kind in "OUS")
                    else np.result_type(seen, arr.dtype)
                )
            if coded and i not in self._code_maps:
                self._start_coding(i, seen)
            if i in self._code_maps:
                arrays[i] = _dictionary_codes(self._code_maps[i], arr)
        return np.stack(arrays, axis=1)

    def _start_coding(self, i: int, seen: np.dtype) -> None:
        """Key column ``i`` turned non-numeric: from here on it lives
        in the matrix as dictionary codes, so groups accumulated while
        it was still numeric (dtype ``seen``) are re-coded in place."""
        codes = self._code_maps[i] = {}
        if self.keys is None:
            return
        columns = [self.keys[:, j] for j in range(self.keys.shape[1])]
        columns[i] = _dictionary_codes(codes, columns[i].astype(seen))
        self.keys = np.stack(columns, axis=1)

    def update(self, key_columns, part) -> np.ndarray:
        """Merge one (non-empty) partition's rows, grouped by its key
        columns, into the state; returns the merged-state indices of
        the touched groups (aligned with the partition's sorted unique
        key rows)."""
        stacked = self._stack_keys(key_columns)
        uniques, inverse, counts = unique_rows(stacked, return_counts=True)
        counts = counts.astype(np.int64)
        partials = self._partials(uniques, inverse, counts, part)

        if self.keys is None:
            self.keys = uniques
            self.counts = counts
            self.values = partials
            return np.arange(len(uniques), dtype=np.int64)

        num_old = len(self.keys)
        combined = np.concatenate([self.keys, uniques], axis=0)
        merged_keys, remap = unique_rows(combined)
        old_map, new_map = remap[:num_old], remap[num_old:]
        old_counts = np.zeros(len(merged_keys), dtype=np.int64)
        old_counts[old_map] = self.counts
        merged_counts = old_counts.copy()
        merged_counts[new_map] += counts
        merged_values = []
        for spec, old, partial in zip(self.specs, self.values, partials):
            if spec.kind == "count":
                merged_values.append(None)
            elif spec.kind in ("sum", "mean"):
                merged = np.zeros(len(merged_keys))
                merged[old_map] = old
                merged[new_map] += partial
                merged_values.append(merged)
            elif spec.kind == "min":
                merged = np.full(len(merged_keys), np.inf)
                merged[old_map] = old
                merged[new_map] = np.minimum(merged[new_map], partial)
                merged_values.append(merged)
            elif spec.kind == "max":
                merged = np.full(len(merged_keys), -np.inf)
                merged[old_map] = old
                merged[new_map] = np.maximum(merged[new_map], partial)
                merged_values.append(merged)
            elif spec.kind in ("var", "std"):
                merged_values.append(
                    self._merge_moments(
                        merged_keys, old_map, new_map, old_counts,
                        counts, old, partial,
                    )
                )
            else:
                merged = np.empty(len(merged_keys), dtype=object)
                merged[old_map] = old
                for slot, fresh in zip(new_map, partial):
                    existing = merged[slot]
                    merged[slot] = (
                        fresh if existing is None else existing | fresh
                    )
                merged_values.append(merged)
        self.keys = merged_keys
        self.counts = merged_counts
        self.values = merged_values
        return new_map

    @staticmethod
    def _merge_moments(
        merged_keys, old_map, new_map, old_counts, counts, old, partial
    ):
        """Vectorized Chan merge of (mean, M2) pairs at ``new_map``;
        groups unseen before take the incoming partial bit for bit
        (same exactness rule as the scalar :func:`_chan_merge`)."""
        means = np.zeros(len(merged_keys))
        m2s = np.zeros(len(merged_keys))
        if old is not None:
            means[old_map] = old[0]
            m2s[old_map] = old[1]
        na = old_counts[new_map].astype(np.float64)
        nb = counts.astype(np.float64)
        pm, pm2 = partial
        ma = means[new_map]
        m2a = m2s[new_map]
        with np.errstate(invalid="ignore", divide="ignore"):
            n = na + nb
            delta = pm - ma
            ratio = nb / n
            merged_mean = ma + delta * ratio
            merged_m2 = m2a + pm2 + delta * delta * (na * ratio)
        fresh = na == 0
        if fresh.any():
            merged_mean = np.where(fresh, pm, merged_mean)
            merged_m2 = np.where(fresh, pm2, merged_m2)
        means[new_map] = merged_mean
        m2s[new_map] = merged_m2
        return means, m2s

    def select(self, mask: np.ndarray) -> "ArrayGroupState":
        """A new state holding only the groups where ``mask`` is True
        (accumulator arrays sliced, sets shared — the caller finalizes
        or discards the selection, never updates it concurrently)."""
        out = ArrayGroupState(self.specs)
        out.key_dtypes = self.key_dtypes
        out._code_maps = self._code_maps
        if self.keys is None or not mask.any():
            return out
        out.keys = self.keys[mask]
        out.counts = self.counts[mask]
        out.values = [
            None
            if value is None
            else (value[0][mask], value[1][mask])
            if spec.kind in ("var", "std")
            else value[mask]
            for spec, value in zip(self.specs, self.values)
        ]
        return out

    def compact(self, mask: np.ndarray) -> int:
        """Drop the groups where ``mask`` is False (watermark
        eviction); returns how many groups were evicted."""
        if self.keys is None:
            return 0
        evicted = int(len(self.keys) - np.count_nonzero(mask))
        if evicted == 0:
            return 0
        kept = self.select(mask)
        self.keys = kept.keys
        self.counts = kept.counts
        self.values = (
            kept.values if kept.keys is not None else [None] * len(self.specs)
        )
        return evicted

    def to_partition(self, keys):
        """Finalize every group as one partition: the key columns
        (named ``keys``, restored to their input dtypes) followed by
        one column per aggregate."""
        from repro.engine.partition import Partition

        if self.keys is None:
            return empty_group_partition(keys, self.specs)
        columns = {}
        for i, (key_name, dtype) in enumerate(zip(keys, self.key_dtypes)):
            codes = self._code_maps.get(i)
            if codes is None:
                columns[key_name] = self.keys[:, i].astype(dtype)
                continue
            # Filled element by element: a bulk assignment would try
            # to unpack sequence-valued keys (tuples).
            table = np.empty(len(codes), dtype=object)
            for code, value in enumerate(codes):
                table[code] = value
            columns[key_name] = table[self.keys[:, i].astype(np.int64)].astype(
                dtype
            )
        for spec_index, spec in enumerate(self.specs):
            value = self.values[spec_index]
            if spec.kind == "count":
                columns[spec.out_name] = self.counts.copy()
            elif spec.kind == "mean":
                columns[spec.out_name] = value / self.counts
            elif spec.kind in ("var", "std"):
                with np.errstate(invalid="ignore", divide="ignore"):
                    out = value[1] / (self.counts - 1)
                out = np.where(self.counts < 2, np.nan, out)
                if spec.kind == "std":
                    out = np.sqrt(out)
                columns[spec.out_name] = out
            elif spec.kind == "count_distinct":
                columns[spec.out_name] = np.fromiter(
                    (len(s) for s in value),
                    dtype=np.int64,
                    count=len(value),
                )
            else:
                columns[spec.out_name] = value
        return Partition(columns)
