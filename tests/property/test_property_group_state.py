"""Property test: the code-addressed group state equals the sorted one
bit for bit.

``ArrayGroupState`` holds integer/bool keys with small packed codes
code-addressed; ``SortedGroupState`` (``tests/group_state_oracle.py``)
is the same class held sorted throughout.  The code-addressed state
runs three times — choosing its merge way per batch, and forced to
count (``CountingGroupState``) or to sort (``SortingGroupState``) on
every merge — and each run merges the same partitions as the oracle:
1-3 key columns of int8/int32/int64/uint8/bool, 1-5 partitions whose
key ranges sit below, at or above the form's slots-per-row bound and
shift between partitions, so a state stays code-addressed, re-packs,
compacts mid-way or never enters the form; every aggregate kind over
values with NaN, +-0.0, +-inf and overflowing sums.  After every merge
the two agree on ``update``'s count of touched groups, the touched
groups finalized, ``num_groups``, every array's bits and
``select(...).to_partition``.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine import agg
from repro.engine.aggregates import ArrayGroupState
from repro.engine.partition import Partition
from tests.group_state_oracle import (
    CountingGroupState,
    SortedGroupState,
    SortingGroupState,
)

SPECS = [
    agg.count(name="n"),
    agg.sum_("v"),
    agg.min_("v"),
    agg.max_("v"),
    agg.mean("v"),
]
KEY_DTYPES = ["int8", "int32", "int64", "uint8", "bool"]
VALUES = np.array(
    [np.nan, 0.0, -0.0, np.inf, -np.inf, 1.5, -2.25, 3.0, 1e308, -1e308]
)
# Key range per column, as a function of the partition's rows.  A
# column's codes span twice its range, so one "rows" column stays below
# the 8-slots-per-row bound, one "bound" column reaches it, and "wide"
# (or two "rows" columns) lie past it.
WIDTHS = {
    "narrow": lambda rows: 2,
    "rows": lambda rows: rows,
    "bound": lambda rows: 4 * rows,
    "wide": lambda rows: 64 * rows,
}


@st.composite
def merges(draw):
    dtypes = draw(st.lists(st.sampled_from(KEY_DTYPES), min_size=1, max_size=3))
    parts = draw(
        st.lists(
            st.tuples(
                st.integers(0, 30),  # rows
                st.sampled_from(sorted(WIDTHS)),
                st.integers(-2, 2),  # range shift, in widths
            ),
            min_size=1,
            max_size=5,
        )
    )
    # Whether the last of several partitions brings its int8 columns as
    # int32 (a widening, which compacts a code-addressed state).
    widen = len(parts) > 1 and draw(st.booleans())
    return dtypes, parts, widen, draw(st.integers(0, 2**32 - 1))


def key_column(rng, dtype, rows, width, shift):
    span = max(1, WIDTHS[width](rows))
    values = shift * span + rng.integers(0, span, rows)
    if dtype == "bool":
        return values % 2 == 1
    info = np.iinfo(dtype)
    return np.clip(values, info.min, info.max).astype(dtype)


def assert_same_bits(got, want, what):
    assert got.dtype == want.dtype, what
    assert got.shape == want.shape, what
    assert got.tobytes() == want.tobytes(), what


def assert_same_partition(got, want):
    assert list(got.columns) == list(want.columns)
    for name in got.columns:
        assert_same_bits(got.columns[name], want.columns[name], name)


def held_bytes(state):
    if state._code_counts is not None:
        arrays = [state._code_counts, *state._code_values]
    else:
        arrays = [state._keys, state._codes, state._counts, *state._values]
    return sum(arr.nbytes for arr in arrays if arr is not None)


@settings(max_examples=120, deadline=None)
@given(merges())
# Stays code-addressed, re-packing as the range shifts.
@example((["int64"], [(20, "rows", 0), (20, "rows", 1), (20, "rows", -1)], False, 1))
# Enters, then compacts when a wide partition arrives.
@example(
    (["int32", "uint8"], [(30, "narrow", 0), (10, "wide", 2), (5, "narrow", 0)], False, 2)
)
# Never enters: the first partition is already past the bound.
@example((["int64", "int8"], [(25, "wide", 0), (25, "narrow", 0)], False, 3))
# Adds of two NaNs: which one survives depends on the array position,
# so the fold must see the sorted form's operands where it does.
@example((["int8"], [(4, "bound", -1), (11, "narrow", 0), (6, "narrow", 0)], False, 0))
# Widening int8 -> int32 compacts.
@example((["int8", "bool"], [(10, "narrow", 0), (10, "narrow", 0)], True, 4))
# A small batch past the highest code grows the slots, then sorts.
@example((["int64"], [(20, "rows", 0), (2, "rows", 12), (3, "narrow", 0)], False, 5))
# A small batch below the packing's range re-packs, then sorts.
@example((["int64"], [(20, "rows", 0), (2, "rows", -3), (2, "narrow", 0)], False, 6))
@np.errstate(over="ignore", invalid="ignore")
def test_code_addressed_state_equals_sorted(case):
    for form in (ArrayGroupState, CountingGroupState, SortingGroupState):
        assert_merges_equal_sorted(form, case)


def assert_merges_equal_sorted(form, case):
    dtypes, parts, widen, seed = case
    rng = np.random.default_rng(seed)
    names = [f"k{i}" for i in range(len(dtypes))]
    state, oracle = form(SPECS), SortedGroupState(SPECS)
    for p, (rows, width, shift) in enumerate(parts):
        last = widen and p == len(parts) - 1
        columns = [
            key_column(rng, "int32" if last and d == "int8" else d, rows, width, shift)
            for d in dtypes
        ]
        part = Partition({"v": rng.choice(VALUES, rows)})

        assert state.update(columns, part) == oracle.update(columns, part)
        assert_same_partition(
            state.touched().to_partition(names),
            oracle.touched().to_partition(names),
        )
        assert state.num_groups == oracle.num_groups
        assert type(state.num_groups) is int  # reported as JSON
        assert state.nbytes >= held_bytes(state)
        if oracle.num_groups == 0:
            assert state.keys is None and state.counts is None
        else:
            assert_same_bits(state.keys, oracle.keys, "keys")
            assert_same_bits(state.counts, oracle.counts, "counts")
            for spec, got, want in zip(SPECS, state.values, oracle.values):
                if want is None:
                    assert got is None
                else:
                    assert_same_bits(got, want, spec.out_name)
        some = rng.permutation(oracle.num_groups)[: rng.integers(0, 4)]
        assert_same_partition(
            state.select(some).to_partition(names),
            oracle.select(some).to_partition(names),
        )
    assert_same_partition(state.to_partition(names), oracle.to_partition(names))
