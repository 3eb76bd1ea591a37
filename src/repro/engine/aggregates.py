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
order-preserving int64 code per key row (:class:`KeyPacking`), packed
once per partition.  While the codes are small — integer keys whose
highest code stays below a few slots per partition row or per group
held, the ``time_step × cell_id`` grid of Figure 8 — the code *is* the
group's address: a merge finds the codes the rows touch, by one
counting pass over the slots (O(rows + slots)) or, for a batch much
smaller than the slots, by sorting its own codes (O(rows log rows)),
and folds the partials into those slots, with no search or insert.
Otherwise (float, dictionary-coded or wide keys) a partition's rows
are grouped by a 1-D integer ``np.unique`` in O(rows log rows), found
in the state's sorted codes by ``searchsorted``, then scattered in or
inserted — an insert moves only the state's rows from the first
insertion point on, within geometrically reserved buffers.  A state
starts in the first form when its first partition allows it and
compacts into the second, once, when a later one does not.
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

    @property
    def offset_coded(self) -> bool:
        """Every column offset-coded and no prefix folded: a code is
        then a plain mixed-radix number that :meth:`decode` inverts."""
        return all(t is None and f is None for _, t, _, f in self._columns)

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """The int64 key rows of ``codes`` under an offset-coded
        packing: per column, ``lo + digit``."""
        rows = np.empty((len(codes), len(self._columns)), dtype=np.int64)
        for j in range(len(self._columns) - 1, 0, -1):
            codes, rows[:, j] = np.divmod(codes, self._columns[j][2])
        rows[:, 0] = codes  # below the first column's span: its digit
        for j, (lo, _, _, _) in enumerate(self._columns):
            if lo:
                rows[:, j] += lo
        return rows

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
_FOLD = {"min": np.minimum, "max": np.maximum}

# Capacity, as a multiple of the groups, reserved when a merge
# outgrows the state's buffers: geometric growth, so the head of the
# state is copied a logarithmic number of times over a stream, not
# once per merge that brings new groups.
_GROWTH = 1.5

# The code-addressed form keeps one slot per packed code up to the
# highest seen, while that code is below this many slots per row of
# the largest partition merged so far or per group held, whichever is
# more: its arrays stay a small multiple of the larger of one
# partition and the state itself, however sparse the codes.
_DENSE_SLOTS_PER_ROW = 8

# A code-addressed merge finds its touched codes by sorting the batch's
# own codes when the live slots outnumber its rows by more than this
# factor, else by one counting pass over every slot (the crossover
# measured in docs/measurements/stream_addressed.md).
_SORT_SLOTS_PER_ROW = 8


def empty_group_partition(keys, specs, key_dtypes=None):
    """The zero-row group-by output: key columns in ``key_dtypes``
    (float64 where unknown), int64 counts, float64 accumulators."""
    from repro.engine.partition import Partition

    dtypes = key_dtypes or [np.float64] * len(keys)
    cols = {k: np.empty(0, dtype=dtype) for k, dtype in zip(keys, dtypes)}
    for s in specs:
        dtype = np.int64 if s.kind == "count" else np.float64
        cols[s.out_name] = np.empty(0, dtype=dtype)
    return Partition(cols)


class ArrayGroupState:
    """Per-group accumulators held as whole arrays, one vectorized
    merge per partition.  This is the engine's only group-by state.

    It holds its groups in one of two forms:

    - **Code-addressed**, while the key matrix is integer or bool, its
      :class:`KeyPacking` offset-codes every column (no dictionary
      table, no fold), no column is dictionary-coded and the highest
      packed code is below ``_DENSE_SLOTS_PER_ROW`` times the rows of
      the largest partition merged so far or the groups held,
      whichever is more — so a stream whose state outgrows its batches
      keeps the form.  ``_code_counts[c]`` and ``_code_values[i][c]``
      are the group whose code is ``c`` (a zero count: no group), in
      arrays sized to the highest code seen and grown ×1.5.  A merge
      packs the rows and finds the slots they touch in one of two
      ways: while the live slots are at most
      ``_SORT_SLOTS_PER_ROW`` per row, one ``bincount`` counts the rows
      into every slot (O(rows + slots)); past that, ``np.sort`` of the
      rows' codes lists the distinct ones and the int32 scratch
      ``_slot_ranks`` maps each row to its group's rank among them
      (O(rows log rows), whatever the slots).  Either way it folds
      each accumulator's partial into the touched slots, with no
      search or insert.  A partition outside the packing's ranges
      re-packs the state in this form while the rule still holds.
    - **Sorted**, for everything else.  A code-addressed state the rule
      no longer admits (a code past the bound, a column turning
      dictionary-coded or widening its dtype) *compacts* into this form
      once — ``flatnonzero`` of the counts lists the codes in key order
      and each key decodes as ``lo + digit`` — and stays in it.  A merge
      groups the partition's packed rows by ``np.unique`` in
      O(rows log rows), finds them in the state's ascending ``_codes``
      by ``searchsorted`` in O(groups log state), scatters in place and
      inserts new groups, moving only the rows from the first insertion
      point on.  ``_keys``, ``_codes``, ``_counts`` and the accumulators
      are views of the first ``num_groups`` rows of reserved buffers
      (``_buffers``, in that order, grown ×1.5) once a merge has
      inserted groups.  The codes are re-packed only when a key column
      outgrows their range or dictionary.

    Both forms compute a partition's per-group partials with the same
    ``bincount`` / ``ufunc.at`` and fold them with the same
    :meth:`_fold`, over the touched groups in key order — the same
    operands at the same array positions — so the form changes no
    output bit, NaN payloads included.  What the class answers means
    the same in both:

    ``keys`` is one numeric matrix of unique key rows in lexicographic
    order (NaN last, all NaN of a column one key).  A non-numeric
    (``O``/``U``/``S``) key column is dictionary-coded: the matrix holds
    int64 codes in first-seen order, ``_code_maps`` holds the value →
    code dict, and :meth:`to_partition` decodes.  ``key_dtypes`` is the
    dtype each key column is restored to on output.  ``counts`` is the
    rows per group; ``values[i]`` is the state of ``specs[i]``: a
    float64 array for sum/mean/min/max, ``None`` for count (``counts``
    is its state).  In the code-addressed form these three are built on
    each read.

    :meth:`update` returns how many groups the incoming partition
    touched, and the state remembers them — codes in the
    code-addressed form, ranks in the sorted form — until the next
    merge: :meth:`touched` returns them as a sorted-form state in key
    order, in O(touched).  The batch executor ignores this; the
    streaming :class:`~repro.engine.streaming.DeltaState` emits its
    per-batch deltas from it.  :attr:`nbytes` counts the arrays held,
    reserved capacity and the slot → rank scratch included.
    """

    def __init__(self, specs):
        self.specs = specs
        self.key_dtypes: list | None = None  # per key column, for output
        self._code_maps: dict = {}  # key column index -> {value: code}
        # Packs key rows in both forms; None until a merge needs it or
        # after the sorted form's keys were rewritten.
        self._packing: KeyPacking | None = None
        self._max_rows = 0  # rows of the largest partition merged
        # Sorted form: unique key rows, their packed codes (ascending),
        # rows per group and accumulators (None for count).
        self._keys: np.ndarray | None = None
        self._codes: np.ndarray | None = None
        self._counts: np.ndarray | None = None
        self._values: list = [None] * len(specs)
        # Reserved buffers behind the arrays of ``_arrays()``, or None
        # while those arrays are exactly ``num_groups`` long.
        self._buffers: list | None = None
        # Code-addressed form (None in the sorted form): rows and
        # accumulators per packed code, live below ``_span``.
        self._code_counts: np.ndarray | None = None
        self._code_values: list | None = None
        self._span = 0
        self._groups = 0
        # Code-addressed scratch: slot -> rank among a sorting merge's
        # touched codes, written only at those codes (int32: a rank is
        # below a partition's rows).
        self._slot_ranks: np.ndarray | None = None
        # The last merge's touched groups, ascending: codes in the
        # code-addressed form, ranks in the sorted form.
        self._touched = np.empty(0, dtype=np.int64)
        self._row_dtype: np.dtype | None = None  # of the key matrix

    @property
    def num_groups(self) -> int:
        if self._code_counts is not None:
            return self._groups
        return 0 if self._keys is None else len(self._keys)

    @property
    def keys(self) -> np.ndarray | None:
        return self._sorted()._keys

    @property
    def counts(self) -> np.ndarray | None:
        return self._sorted()._counts

    @property
    def values(self) -> list:
        return self._sorted()._values

    @property
    def nbytes(self) -> int:
        # Rough dict-entry estimate for the dictionary-coded columns.
        total = sum(64 * len(m) for m in self._code_maps.values())
        if self._code_counts is not None:
            arrays = [self._code_counts, *self._code_values, self._slot_ranks]
        elif self._buffers is not None:
            arrays = self._buffers
        else:
            arrays = [self._keys, self._codes, self._counts, *self._values]
        return total + sum(arr.nbytes for arr in arrays if arr is not None)

    def _sorted(self) -> "ArrayGroupState":
        """This state if it is in the sorted form, else a sorted copy."""
        if self._code_counts is None:
            return self
        return self._gather(self._group_codes())

    def _arrays(self) -> list:
        """The sorted form's per-group arrays, in ``_buffers`` order."""
        return [
            self._keys,
            self._codes,
            self._counts,
            *(value for value in self._values if value is not None),
        ]

    def _partials(self, index, size, part):
        """Per spec, the partition's partial over ``size`` groups with
        row ``r`` in group ``index[r]`` (``None`` for count)."""
        partials = []
        for spec in self.specs:
            if spec.kind == "count":
                partials.append(None)
                continue
            vals = np.asarray(part.columns[spec.column], dtype=np.float64)
            if spec.kind in ("sum", "mean"):
                partial = np.bincount(index, weights=vals, minlength=size)
            else:
                partial = np.full(size, _EMPTY[spec.kind])
                _FOLD[spec.kind].at(partial, index, vals)
            partials.append(partial)
        return partials

    def _stack_keys(self, key_columns) -> np.ndarray:
        """One numeric ``(rows, K)`` matrix for a partition's key
        columns, folding their dtypes into ``key_dtypes``.  Numeric-only
        key sets stack as they are; a non-numeric column (or a numeric
        one arriving after its column went non-numeric) is replaced by
        its dictionary codes."""
        arrays = [np.asarray(col) for col in key_columns]
        if self.num_groups == 0:
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
        if self.num_groups == 0:
            return stacked
        held = self._keys.dtype if self._code_counts is None else self._row_dtype
        dtype = np.result_type(stacked.dtype, held)
        if dtype != held:
            self._compact()
            self._keys = self._keys.astype(dtype)
            self._packing = self._codes = self._buffers = None
        return stacked.astype(dtype, copy=False)

    def _start_coding(self, i: int, seen: np.dtype) -> None:
        """Key column ``i`` turned non-numeric: from here on it lives
        in the matrix as dictionary codes, so groups accumulated while
        it was still numeric (dtype ``seen``) are re-coded in place."""
        self._compact()
        codes = self._code_maps[i] = {}
        if self._keys is None:
            return
        columns = [self._keys[:, j] for j in range(self._keys.shape[1])]
        columns[i] = _dictionary_codes(codes, columns[i].astype(seen))
        self._keys = np.stack(columns, axis=1)
        # First-seen codes do not follow the column's numeric order.
        self._packing = self._codes = None
        self._adopt(self.select(np.argsort(KeyPacking(self._keys).codes)))

    def _addressable(self, packing: KeyPacking, highest: int, dtype) -> bool:
        """The form rule: may groups whose key matrix has ``dtype``,
        packed by ``packing`` with codes up to ``highest``, be held
        code-addressed?"""
        return (
            dtype.kind in "iub"
            and not self._code_maps
            and packing.offset_coded
            and highest < _DENSE_SLOTS_PER_ROW * max(self._max_rows, self.num_groups)
        )

    def _sorts(self, rows: int, slots: int) -> bool:
        """The way rule: does a code-addressed merge of ``rows`` rows
        into ``slots`` live slots find its codes by sorting them?"""
        return rows * _SORT_SLOTS_PER_ROW < slots

    def update(self, key_columns, part) -> int:
        """Merge one partition's rows, grouped by its key columns, into
        the state; returns the number of groups it touched, which
        :meth:`touched` holds until the next merge.  An empty partition
        merges nothing; while no row has been merged, the first one
        sets the output's key dtypes."""
        if part.num_rows == 0:
            if self.key_dtypes is None:
                self.key_dtypes = [np.asarray(col).dtype for col in key_columns]
            self._touched = self._touched[:0]
            return 0
        stacked = self._stack_keys(key_columns)
        self._max_rows = max(self._max_rows, len(stacked))
        # Pack the rows once: under the state's codes when they cover
        # the batch, else under a packing fitted to the batch alone.
        # Both preserve row order, so the groups come out the same.
        packing = self._packing
        codes = None if packing is None else packing.encode(stacked)
        if self._code_counts is not None and codes is None:
            codes = self._repack_addressed(stacked)
            packing = self._packing
        if self._code_counts is not None:
            highest = max(self._span - 1, int(codes.max()))
            if self._addressable(packing, highest, stacked.dtype):
                return self._merge_addressed(codes, highest, part)
            self._compact()
        if codes is None:
            packing = KeyPacking(stacked)
            codes = packing.codes
        if self._keys is None:
            # The first rows merged: a state starts code-addressed when
            # the rule admits them, or never.
            highest = int(codes.max())
            if self._addressable(packing, highest, stacked.dtype):
                self._packing, self._row_dtype = packing, stacked.dtype
                none = codes[:0]  # no groups yet
                self._address(highest + 1, none, none, [none] * len(self.specs))
                return self._merge_addressed(codes, highest, part)

        uniques, codes, inverse, counts = unique_rows(stacked, codes)
        partials = self._partials(inverse, len(uniques), part)
        if self._keys is None:
            self._keys = uniques
            self._counts = counts
            self._values = partials
            self._packing, self._codes = packing, codes
            self._touched = np.arange(len(uniques))
            return len(uniques)

        if packing is not self._packing:
            codes = self._repack(uniques)
        slots = np.searchsorted(self._codes, codes)
        fresh = self._codes.take(slots, mode="clip") != codes
        if fresh.any():
            self._insert(slots[fresh], uniques[fresh], codes[fresh])
            slots += np.cumsum(fresh) - fresh
        self._counts[slots] += counts
        self._fold(self._values, slots, partials)
        self._touched = slots
        return len(slots)

    def _fold(self, values, slots, partials) -> None:
        """Fold each spec's per-group partial into its state at
        ``slots`` — the one place either form merges a float."""
        for spec, value, partial in zip(self.specs, values, partials):
            if spec.kind in ("sum", "mean"):
                value[slots] += partial
            elif spec.kind in _FOLD:
                value[slots] = _FOLD[spec.kind](value[slots], partial)

    # -- code-addressed form --------------------------------------------
    def _group_codes(self) -> np.ndarray:
        """The codes of the code-addressed groups, ascending."""
        return np.flatnonzero(self._code_counts[: self._span] != 0)

    def _decode(self, codes: np.ndarray) -> np.ndarray:
        return self._packing.decode(codes).astype(self._row_dtype, copy=False)

    def _address(self, span: int, codes, counts, values) -> None:
        """Hold the groups with packed ``codes``, their ``counts`` and
        per-spec ``values`` code-addressed, in ``span`` slots."""
        self._code_counts = np.zeros(span, dtype=np.int64)
        self._code_counts[codes] = counts
        self._code_values = []
        for spec, value in zip(self.specs, values):
            slots = None
            if spec.kind != "count":
                slots = np.full(span, _EMPTY.get(spec.kind, 0.0))
                slots[codes] = value
            self._code_values.append(slots)
        self._span, self._groups = span, len(codes)
        self._slot_ranks = None

    def _merge_addressed(self, codes, highest: int, part) -> int:
        if highest >= self._span:
            self._reserve(highest + 1)
        span = self._span
        counts = self._code_counts
        if self._sorts(len(codes), span):
            # Few rows, many slots: the batch's distinct codes by a sort
            # of its own codes, and each row's rank among them through
            # the slot -> rank scratch array.  O(rows log rows).
            ordered = np.sort(codes)
            first = np.empty(len(ordered), dtype=bool)
            first[0] = True
            np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
            touched = ordered[first]
            if self._slot_ranks is None or len(self._slot_ranks) < span:
                self._slot_ranks = np.empty(len(counts), dtype=np.int32)
            self._slot_ranks[touched] = np.arange(len(touched), dtype=np.int32)
            index = self._slot_ranks[codes]
            held = counts[touched]
            counts[touched] = held + np.bincount(index, minlength=len(touched))
            partials = self._partials(index, len(touched), part)
        else:
            # One counting pass over the live slots: O(rows + slots).
            added = np.bincount(codes, minlength=span)
            touched = np.flatnonzero(added != 0)
            held = counts[touched]
            counts[:span] += added
            partials = [
                None if partial is None else partial[touched]
                for partial in self._partials(codes, span, part)
            ]
        self._groups += len(touched) - int(np.count_nonzero(held))
        # Fold only the touched slots, in key order: the sorted form's
        # operands at the same positions, so even the NaN an add of two
        # NaNs keeps (which depends on the lane) is the same.
        self._fold(self._code_values, touched, partials)
        self._touched = touched
        return len(touched)

    def _reserve(self, span: int) -> None:
        """Make the codes below ``span`` live, growing the slot arrays
        ×1.5 (within the form's bound) when they are too short."""
        capacity = len(self._code_counts)
        if span > capacity:
            bound = _DENSE_SLOTS_PER_ROW * max(self._max_rows, self._groups)
            capacity = max(span, min(int(capacity * _GROWTH), bound))

            def grown(arr, fill):
                out = np.full(capacity, fill, dtype=arr.dtype)
                out[: len(arr)] = arr
                return out

            self._code_counts = grown(self._code_counts, 0)
            self._code_values = [
                None if value is None else grown(value, _EMPTY.get(spec.kind, 0.0))
                for spec, value in zip(self.specs, self._code_values)
            ]
        self._span = span

    def _repack_addressed(self, stacked: np.ndarray) -> np.ndarray:
        """The partition has a key outside the packing's ranges: re-fit
        the packing to the state's groups plus its rows and move the
        groups to their new codes — code-addressed while the rule admits
        them, else compacted into the sorted form.  Returns the
        partition's codes under the new packing."""
        held = self._group_codes()
        packing = KeyPacking(np.concatenate([self._decode(held), stacked]))
        moved, codes = packing.codes[: len(held)], packing.codes[len(held) :]
        highest = int(packing.codes.max())
        if self._addressable(packing, highest, stacked.dtype):
            values = [None if v is None else v[held] for v in self._code_values]
            self._address(highest + 1, moved, self._code_counts[held], values)
        else:
            self._compact()
            self._codes = moved
        self._packing = packing
        return codes

    def _gather(self, codes: np.ndarray) -> "ArrayGroupState":
        """A new sorted-form state holding the code-addressed groups
        ``codes``, in that order (arrays copied)."""
        out = ArrayGroupState(self.specs)
        out.key_dtypes = self.key_dtypes
        out._code_maps = self._code_maps
        if len(codes):
            out._keys = self._decode(codes)
            out._counts = self._code_counts[codes]
            out._values = [None if v is None else v[codes] for v in self._code_values]
            out._packing, out._codes = self._packing, codes
        return out

    def _compact(self) -> None:
        """Leave the code-addressed form for the sorted one, for good;
        a no-op in the sorted form."""
        if self._code_counts is not None:
            self._adopt(self._gather(self._group_codes()))

    # -- sorted form ------------------------------------------------------
    def _repack(self, uniques: np.ndarray) -> np.ndarray:
        """Re-fit the state's packing to its own key rows plus
        ``uniques`` — a column's range or dictionary grew past it —
        and return the packed codes of ``uniques``."""
        self._packing = KeyPacking(np.concatenate([self._keys, uniques]))
        self._codes = self._packing.codes[: len(self._keys)]
        self._buffers = None
        return self._packing.codes[len(self._keys) :]

    def _insert(self, at, keys, codes) -> None:
        """Insert empty groups with the given key rows and codes before
        the state positions ``at`` (ascending).  Rows before ``at[0]``
        stay where they are; event-time streams insert near the end of
        the state, so an insert moves a short tail, in place while the
        reserved buffers have room."""
        old = len(self._keys)
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
                for spec, value in zip(self.specs, self._values)
                if value is not None
            ),
        ]
        for buffer, arr, fill in zip(buffers, arrays, fills):
            tail = buffer[head:new]
            # In place the source overlaps the target; numpy reads an
            # overlapping right-hand side before it writes.
            tail[moved] = arr[head:]
            tail[placed] = fill

        self._keys, self._codes, self._counts = (b[:new] for b in buffers[:3])
        grown = iter(buffers[3:])
        self._values = [
            None if value is None else next(grown)[:new] for value in self._values
        ]

    def touched(self) -> "ArrayGroupState":
        """A new sorted-form state holding the groups the last merge
        touched, in key order (arrays copied): O(touched) in either
        form."""
        if self._code_counts is not None:
            return self._gather(self._touched)
        return self.select(self._touched)

    def select(self, where: np.ndarray) -> "ArrayGroupState":
        """A new sorted-form state holding only the groups at the ranks
        ``where``, in that order (accumulator arrays copied)."""
        if self._code_counts is not None:
            return self._gather(self._group_codes()[where])
        out = ArrayGroupState(self.specs)
        out.key_dtypes = self.key_dtypes
        out._code_maps = self._code_maps
        if self._keys is None:
            return out
        keys = self._keys[where]
        if len(keys) == 0:
            return out
        out._keys = keys
        out._counts = self._counts[where]
        out._values = [
            None if value is None else value[where] for value in self._values
        ]
        if self._packing is not None:
            out._packing = self._packing
            out._codes = self._codes[where]
        return out

    def _adopt(self, other: "ArrayGroupState") -> None:
        """Take over ``other``'s sorted-form groups."""
        self._keys = other._keys
        self._counts = other._counts
        self._values = other._values
        self._packing = other._packing
        self._codes = other._codes
        self._buffers = other._buffers
        self._code_counts = self._code_values = self._slot_ranks = None

    def to_partition(self, keys):
        """Finalize every group as one partition: the key columns
        (named ``keys``, restored to their input dtypes) followed by
        one column per aggregate, in ``keys`` order.  For numeric keys
        that is ascending key order (a stable ``lexsort`` of the output
        is the identity; the spatiotemporal converter relies on it).  A
        non-numeric key column is ordered by its first-seen dictionary
        codes, not by value: such output is not sorted."""
        from repro.engine.partition import Partition

        if self._code_counts is not None:
            return self._sorted().to_partition(keys)
        if self._keys is None:
            return empty_group_partition(keys, self.specs, self.key_dtypes)
        columns = {}
        for i, (key_name, dtype) in enumerate(zip(keys, self.key_dtypes)):
            codes = self._code_maps.get(i)
            if codes is None:
                columns[key_name] = self._keys[:, i].astype(dtype)
                continue
            # Filled element by element: a bulk assignment would try
            # to unpack sequence-valued keys (tuples).
            table = np.empty(len(codes), dtype=object)
            for code, value in enumerate(codes):
                table[code] = value
            columns[key_name] = table[self._keys[:, i].astype(np.int64)].astype(
                dtype
            )
        for spec_index, spec in enumerate(self.specs):
            value = self._values[spec_index]
            if spec.kind == "count":
                columns[spec.out_name] = self._counts.copy()
            elif spec.kind == "mean":
                columns[spec.out_name] = value / self._counts
            else:
                columns[spec.out_name] = value.copy()
        return Partition(columns)
