"""Aggregate specifications and mergeable accumulators.

Aggregation runs as Spark does: each input partition is *partially*
aggregated (vectorized), and the partial states are merged into a
global hash table keyed by the group key.  Only (num_groups) state is
ever held, never the input rows — this is the memory property Figure 8
measures.

Every aggregate here is *mergeable*: its per-partition partial is a
fixed-size summary that a two-accumulator ``merge`` combines without
seeing the input rows again.  That property is what the incremental
streaming layer (:mod:`repro.engine.streaming`) relies on.

:class:`ArrayGroupState` is the vectorized form of that merge — whole
accumulator arrays, one merge per partition, keyed by one
order-preserving int64 code per key row (:class:`KeyPacking`): a
partition's rows are packed once, grouped by a 1-D integer
``np.unique``, and their groups found in the state by ``searchsorted``,
then scattered in or inserted — an insert moves only the state's rows
from the first insertion point on, within geometrically reserved
buffers.
Both the batch group-by executor and the streaming ``DeltaState`` run
*this exact class*, which is what makes incrementally maintained
results bit-identical to a from-scratch recompute over the same
partition boundaries: the two paths execute the same float operations
in the same order by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class AggSpec:
    """One output aggregate: ``kind`` over ``column`` named ``out_name``."""

    out_name: str
    column: str  # "*" for count
    kind: str  # count | sum | min | max | mean

    _KINDS = ("count", "sum", "min", "max", "mean")

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


# ----------------------------------------------------------------------
# Order-preserving integer key codes
# ----------------------------------------------------------------------
# The running radix of a packed code stays below _RADIX_LIMIT: with
# fewer than 2**31 rows, a folded prefix (radix <= rows) times a span
# (<= 2 * _OFFSET_RANGE, or <= rows for a dictionary) always fits.
_RADIX_LIMIT = 1 << 62
_OFFSET_RANGE = 1 << 30


def _whole_column(col: np.ndarray):
    """``(int64 copy, min, max)`` of a non-empty integer-valued column
    (integer, bool, or float holding only whole numbers) within
    +-2**62; ``None`` for anything else, NaN and infinities included."""
    if not len(col) or col.dtype.kind not in "iubf":
        return None
    lo, hi = col.min().item(), col.max().item()
    if not (-_RADIX_LIMIT < lo and hi < _RADIX_LIMIT):
        return None
    whole = col.astype(np.int64)
    if col.dtype.kind == "f" and not (whole == col).all():
        return None
    return whole, int(lo), int(hi)


def _lookup(table: np.ndarray, values: np.ndarray):
    """Position of each of ``values`` in the sorted unique ``table``,
    or ``None`` when one is absent.  NaN finds NaN."""
    idx = np.searchsorted(table, values)
    found = table.take(idx, mode="clip")
    hit = (found == values) | ((found != found) & (values != values))
    return idx if hit.all() else None


class KeyPacking:
    """An order-preserving map from numeric key rows to one int64 code
    per row: comparing two codes compares the rows lexicographically.

    Each column is reduced to dense codes that keep its value order —
    ``value - min`` for an integer-valued column whose range is below
    2**30, otherwise the position in the column's sorted distinct
    values (all NaN share the last one) — and the column codes are
    packed mixed-radix, first column most significant.  Where the
    radix would reach 2**62 the packed prefix is *folded*: replaced by
    its position among the distinct prefixes seen at fit time.

    The map is fitted to the rows it is built from (``codes`` are
    theirs); :meth:`encode` maps other rows with the same parameters
    and answers ``None`` when a row falls outside them — a value
    beyond a column's range, or absent from a dictionary or a fold.
    """

    def __init__(self, rows: np.ndarray):
        # Per key column: (offset, dictionary, span, fold); a column
        # has an offset or a dictionary, and a fold if one precedes it.
        self._columns: list = []
        self.codes = self._pack(rows, fit=True)

    def encode(self, rows: np.ndarray):
        return self._pack(rows, fit=False)

    @staticmethod
    def _fit_column(col, whole, code, radix):
        if whole is not None and whole[2] - whole[1] < _OFFSET_RANGE:
            # Twice the range seen: a key that keeps growing (event
            # time, first-seen dictionary codes) outgrows its span a
            # logarithmic number of times, not once per batch.
            lo, table, span = whole[1], None, 2 * (whole[2] - whole[1] + 1)
        else:
            lo, table = 0, np.unique(col)
            span = len(table)
        fold = np.unique(code) if radix * span >= _RADIX_LIMIT else None
        return lo, table, span, fold

    def _pack(self, rows: np.ndarray, fit: bool):
        code, radix = None, 1
        for j, col in enumerate(rows.T):
            whole = _whole_column(col)
            if fit:
                self._columns.append(self._fit_column(col, whole, code, radix))
            lo, table, span, fold = self._columns[j]
            if fold is not None:
                code, radix = _lookup(fold, code), len(fold)
                if code is None:
                    return None
            if table is not None:
                digits = _lookup(table, col)
            elif whole is not None and lo <= whole[1] and whole[2] < lo + span:
                digits = whole[0]
                digits -= lo
            else:
                digits = None
            if digits is None:
                return None
            radix *= span
            if code is None:
                code = digits
            else:
                code *= span
                code += digits
        return code


def unique_rows(rows: np.ndarray, codes: np.ndarray):
    """``(uniques, unique codes, inverse, counts)`` of a numeric key
    matrix given its rows' order-preserving codes (a
    :class:`KeyPacking`'s): its distinct rows in lexicographic order,
    their codes, each row's position among them and the rows per
    distinct row — one 1-D integer ``np.unique`` over the codes."""
    ucodes, inverse, counts = np.unique(
        codes, return_inverse=True, return_counts=True
    )
    # Any member stands for its group: grouped rows are equal.
    member = np.empty(len(counts), dtype=np.intp)
    member[inverse] = np.arange(len(rows))
    return rows[member], ucodes, inverse, counts


# ----------------------------------------------------------------------
# Vectorized per-group state: whole accumulator arrays, scatter merges
# ----------------------------------------------------------------------
def _dictionary_codes(codes: dict, values: np.ndarray) -> np.ndarray:
    """int64 codes of ``values`` under the value → code dict ``codes``,
    which grows in first-seen order."""
    return np.fromiter(
        (codes.setdefault(v, len(codes)) for v in values.tolist()),
        dtype=np.int64,
        count=len(values),
    )


# What a group no partition has reached yet holds, by aggregate kind
# (0.0 for the others); merging a partial into it yields the partial
# bit for bit.
_EMPTY = {"min": np.inf, "max": -np.inf}

# Capacity, as a multiple of the groups, reserved when a merge
# outgrows the state's buffers: geometric growth, so the head of the
# state is copied a logarithmic number of times over a stream, not
# once per merge that brings new groups.
_GROWTH = 1.5


def empty_group_partition(keys, specs):
    from repro.engine.partition import Partition

    cols = {k: np.empty(0) for k in keys}
    cols.update({s.out_name: np.empty(0) for s in specs})
    return Partition(cols)


class ArrayGroupState:
    """Per-group accumulators held as whole arrays, one vectorized
    merge per partition.  This is the engine's only group-by state.

    A merge packs the partition's key rows once under the state's
    codes and groups them in O(rows log rows), finds and scatters into
    its groups in place in O(groups log state), and inserts new groups
    by moving only the rows from the first insertion point onward; the
    state's codes are re-packed only when a key column outgrows their
    range or dictionary.

    ``keys``, ``_codes``, ``counts`` and the accumulators are views of
    the first ``num_groups`` rows of reserved buffers (``_buffers``, in
    that order) once a merge has inserted groups; the buffers grow
    geometrically, and whatever replaces one of those arrays wholesale
    drops them.  :attr:`nbytes` counts the reserved capacity.

    ``keys`` is one numeric matrix of unique key rows in lexicographic
    order (NaN last, all NaN of a column one key).  A non-numeric
    (``O``/``U``/``S``) key column is dictionary-coded: the matrix holds
    int64 codes in first-seen order, ``_code_maps`` holds the value →
    code dict, and :meth:`to_partition` decodes.  ``key_dtypes`` is the
    dtype each key column is restored to on output.

    ``values[i]`` is the state of ``specs[i]``: a float64 array for
    sum/mean/min/max, ``None`` for count (the shared ``counts`` array
    is its state).

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
        # Packed codes of ``keys`` (ascending) under ``_packing``; both
        # None until a merge needs them or after ``keys`` was rewritten.
        self._packing: KeyPacking | None = None
        self._codes: np.ndarray | None = None
        # Reserved buffers behind the arrays of ``_arrays()``, or None
        # while those arrays are exactly ``num_groups`` long.
        self._buffers: list | None = None

    @property
    def num_groups(self) -> int:
        return 0 if self.keys is None else len(self.keys)

    @property
    def nbytes(self) -> int:
        # Rough dict-entry estimate for the dictionary-coded columns.
        total = sum(64 * len(m) for m in self._code_maps.values())
        arrays = self._buffers
        if arrays is None:
            arrays = [self.keys, self._codes, self.counts, *self.values]
        return total + sum(arr.nbytes for arr in arrays if arr is not None)

    def _arrays(self) -> list:
        """The per-group arrays an insert grows, in ``_buffers`` order."""
        return [
            self.keys,
            self._codes,
            self.counts,
            *(value for value in self.values if value is not None),
        ]

    def _partials(self, uniques, inverse, part):
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
            else:
                partial = np.full(len(uniques), -np.inf)
                np.maximum.at(partial, inverse, vals)
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
        stacked = np.stack(arrays, axis=1)
        if self.keys is None:
            return stacked
        dtype = np.result_type(stacked.dtype, self.keys.dtype)
        if dtype != self.keys.dtype:
            self.keys = self.keys.astype(dtype)
            self._packing = self._codes = self._buffers = None
        return stacked.astype(dtype, copy=False)

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
        # First-seen codes do not follow the column's numeric order.
        self._packing = self._codes = None
        self._adopt(self.select(np.argsort(KeyPacking(self.keys).codes)))

    def update(self, key_columns, part) -> np.ndarray:
        """Merge one (non-empty) partition's rows, grouped by its key
        columns, into the state; returns the merged-state indices of
        the touched groups (aligned with the partition's sorted unique
        key rows)."""
        stacked = self._stack_keys(key_columns)
        # Pack the rows once: under the state's codes when they cover
        # the batch, else under a packing fitted to the batch alone.
        # Both preserve row order, so the groups come out the same.
        packing = self._packing
        codes = None if packing is None else packing.encode(stacked)
        if codes is None:
            packing = KeyPacking(stacked)
            codes = packing.codes
        uniques, codes, inverse, counts = unique_rows(stacked, codes)
        partials = self._partials(uniques, inverse, part)

        if self.keys is None:
            self.keys = uniques
            self.counts = counts
            self.values = partials
            self._packing, self._codes = packing, codes
            return np.arange(len(uniques), dtype=np.int64)

        if packing is not self._packing:
            codes = self._repack(uniques)
        slots = np.searchsorted(self._codes, codes)
        fresh = self._codes.take(slots, mode="clip") != codes
        if fresh.any():
            self._insert(slots[fresh], uniques[fresh], codes[fresh])
            slots += np.cumsum(fresh) - fresh
        self.counts[slots] += counts
        for spec, value, partial in zip(self.specs, self.values, partials):
            if spec.kind in ("sum", "mean"):
                value[slots] += partial
            elif spec.kind == "min":
                value[slots] = np.minimum(value[slots], partial)
            elif spec.kind == "max":
                value[slots] = np.maximum(value[slots], partial)
        return slots

    def _repack(self, uniques: np.ndarray) -> np.ndarray:
        """Re-fit the state's packing to its own key rows plus
        ``uniques`` — a column's range or dictionary grew past it —
        and return the packed codes of ``uniques``."""
        self._packing = KeyPacking(np.concatenate([self.keys, uniques]))
        self._codes = self._packing.codes[: len(self.keys)]
        self._buffers = None
        return self._packing.codes[len(self.keys) :]

    def _insert(self, at, keys, codes) -> None:
        """Insert empty groups with the given key rows and codes before
        the state positions ``at`` (ascending).  Rows before ``at[0]``
        stay where they are; event-time streams insert near the end of
        the state, so an insert moves a short tail, in place while the
        reserved buffers have room."""
        old = len(self.keys)
        new, head = old + len(at), int(at[0])
        # Placement plan for the rows from ``head`` on: the i-th new
        # group lands at at[i] + i, every old row moves up by the
        # number of new groups inserted at or before it.
        placed = at - head + np.arange(len(at))
        moved = np.arange(old - head)
        moved += np.searchsorted(at - head, moved, side="right")

        arrays = self._arrays()
        buffers = self._buffers
        if buffers is None or len(buffers[0]) < new:
            capacity = int(new * _GROWTH)
            buffers = []
            for arr in arrays:
                buffer = np.empty((capacity, *arr.shape[1:]), dtype=arr.dtype)
                buffer[:head] = arr[:head]
                buffers.append(buffer)
            self._buffers = buffers
        fills = [
            keys,
            codes,
            0,
            *(
                _EMPTY.get(spec.kind, 0.0)
                for spec, value in zip(self.specs, self.values)
                if value is not None
            ),
        ]
        for buffer, arr, fill in zip(buffers, arrays, fills):
            tail = buffer[head:new]
            # In place the source overlaps the target; numpy reads an
            # overlapping right-hand side before it writes.
            tail[moved] = arr[head:]
            tail[placed] = fill

        self.keys, self._codes, self.counts = (b[:new] for b in buffers[:3])
        grown = iter(buffers[3:])
        self.values = [
            None if value is None else next(grown)[:new] for value in self.values
        ]

    def select(self, where: np.ndarray) -> "ArrayGroupState":
        """A new state holding only the groups at the positions
        ``where``, in that order (accumulator arrays copied)."""
        out = ArrayGroupState(self.specs)
        out.key_dtypes = self.key_dtypes
        out._code_maps = self._code_maps
        if self.keys is None:
            return out
        keys = self.keys[where]
        if len(keys) == 0:
            return out
        out.keys = keys
        out.counts = self.counts[where]
        out.values = [
            None if value is None else value[where] for value in self.values
        ]
        if self._packing is not None:
            out._packing = self._packing
            out._codes = self._codes[where]
        return out

    def _adopt(self, other: "ArrayGroupState") -> None:
        self.keys = other.keys
        self.counts = other.counts
        self.values = other.values
        self._packing = other._packing
        self._codes = other._codes
        self._buffers = other._buffers

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
            else:
                columns[spec.out_name] = value.copy()
        return Partition(columns)
