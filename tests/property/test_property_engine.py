"""Property-based tests of the DataFrame engine against a dict-based
reference implementation."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Session, agg, col
from repro.engine.aggregates import ArrayGroupState, KeyPacking, unique_rows
from repro.engine.partition import Partition
from repro.engine.schema import Field, Schema
from tests.key_oracle import oracle_unique_rows


@st.composite
def frames(draw):
    n = draw(st.integers(min_value=0, max_value=60))
    keys = draw(
        st.lists(
            st.integers(min_value=0, max_value=5), min_size=n, max_size=n
        )
    )
    values = draw(
        st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    parts = draw(st.integers(min_value=1, max_value=5))
    return keys, values, parts


def _df(keys, values, parts):
    session = Session(default_parallelism=parts)
    return session.create_dataframe(
        {
            "k": np.asarray(keys, dtype=np.int64),
            "v": np.asarray(values, dtype=np.float64),
        }
    )


@settings(max_examples=40, deadline=None)
@given(frames())
def test_count_invariant_to_partitioning(frame):
    keys, values, parts = frame
    assert _df(keys, values, parts).count() == len(keys)


@settings(max_examples=40, deadline=None)
@given(frames())
def test_filter_complement_partition(frame):
    keys, values, parts = frame
    df = _df(keys, values, parts)
    kept = df.filter(col("v") > 0).count()
    dropped = df.filter(~(col("v") > 0)).count()
    assert kept + dropped == len(keys)


@settings(max_examples=40, deadline=None)
@given(frames())
def test_groupby_matches_reference(frame):
    keys, values, parts = frame
    df = _df(keys, values, parts)
    rows = df.group_by("k").agg(
        agg.count(name="n"), agg.sum_("v", "s"), agg.min_("v", "lo"),
        agg.max_("v", "hi"), agg.mean("v", "m"),
    ).collect()
    reference: dict = {}
    for k, v in zip(keys, values):
        reference.setdefault(k, []).append(v)
    assert len(rows) == len(reference)
    for row in rows:
        ref = reference[row["k"]]
        assert row["n"] == len(ref)
        assert np.isclose(row["s"], sum(ref))
        assert np.isclose(row["lo"], min(ref))
        assert np.isclose(row["hi"], max(ref))
        assert np.isclose(row["m"], sum(ref) / len(ref))


@settings(max_examples=40, deadline=None)
@given(frames(), st.integers(min_value=0, max_value=100))
def test_limit_bounds(frame, n):
    keys, values, parts = frame
    df = _df(keys, values, parts)
    assert df.limit(n).count() == min(n, len(keys))


# ----------------------------------------------------------------------
# Non-numeric group keys: dictionary-coded inside the one group-by state
# ----------------------------------------------------------------------
WORDS = ["apple", "pear", "quince", "", "apple "]
ALL_AGGS = [
    agg.count(name="n"), agg.sum_("v", "s"), agg.min_("v", "lo"),
    agg.max_("v", "hi"), agg.mean("v", "m"),
]
#: name -> how a drawn list of word indices becomes that key column.
KEY_COLUMNS = {
    "obj": lambda idx: _object_array([WORDS[j] for j in idx]),
    "uni": lambda idx: np.array([WORDS[j] for j in idx], dtype="<U6"),
    "int": lambda idx: np.asarray(idx, dtype=np.int64),
}


def _object_array(values):
    out = np.empty(len(values), dtype=object)
    out[:] = values
    return out


@st.composite
def keyed_frames(draw):
    n = draw(st.integers(min_value=0, max_value=40))
    names = draw(
        st.sampled_from(
            [("obj",), ("uni",), ("obj", "int"), ("int", "uni"), ("obj", "uni")]
        )
    )
    index = st.lists(
        st.integers(min_value=0, max_value=len(WORDS) - 1),
        min_size=n, max_size=n,
    )
    keys = {name: draw(index) for name in names}
    values = draw(
        st.lists(
            st.one_of(
                st.integers(min_value=-3, max_value=3).map(float),
                st.floats(min_value=-100, max_value=100, allow_nan=False),
            ),
            min_size=n, max_size=n,
        )
    )
    # 0-3 cut points -> 1-4 partitions; repeated cuts give empty ones.
    cuts = draw(
        st.lists(st.integers(min_value=0, max_value=n), min_size=0, max_size=3)
    )
    return names, keys, values, sorted(cuts)


def _grouped(columns: dict, names, cuts):
    """``group_by(*names)`` over all five aggregate kinds, with the
    frame cut into explicit (possibly empty) partitions; rows keyed by
    their group-key tuple."""
    n = len(columns["v"])
    bounds = [0, *cuts, n]
    factories = [
        lambda a=a, b=b: Partition({k: c[a:b] for k, c in columns.items()})
        for a, b in zip(bounds[:-1], bounds[1:])
    ]
    schema = Schema([Field(k, c.dtype) for k, c in columns.items()])
    return (
        Session()
        .from_partitions(factories, schema)
        .group_by(*names)
        .agg(*ALL_AGGS)
        .to_columns()
    )


@settings(max_examples=60, deadline=None)
@given(keyed_frames())
def test_non_numeric_keys_equal_prefactorised_ints(frame):
    """Grouping by string keys gives, group for group and bit for bit,
    what grouping by the same keys factorised to ints up front gives
    (the numeric ``unique_rows`` path) — and hands the keys back in
    their input dtypes."""
    names, keys, values, cuts = frame
    v = np.asarray(values, dtype=np.float64)
    by_name = {name: KEY_COLUMNS[name](keys[name]) for name in names}
    # The drawn word indices *are* a factorisation (not the first-seen
    # order the state's own dictionary assigns).
    by_code = {name: KEY_COLUMNS["int"](keys[name]) for name in names}

    got = _grouped({**by_name, "v": v}, names, cuts)
    want = _grouped({**by_code, "v": v}, names, cuts)

    if len(v) == 0:
        assert all(len(col_) == 0 for col_ in got.values())
        return
    for name in names:
        assert got[name].dtype == by_name[name].dtype, name

    def rows(out, decode):
        """(group-key tuples, aggregate columns), both in key order."""
        key_cols = [
            [
                WORDS[c] if decode and name != "int" else c
                for c in out[name].tolist()
            ]
            for name in names
        ]
        tuples = list(zip(*key_cols))
        order = sorted(range(len(tuples)), key=tuples.__getitem__)
        return (
            [tuples[r] for r in order],
            {a.out_name: out[a.out_name][order] for a in ALL_AGGS},
        )

    got_keys, got_aggs = rows(got, decode=False)
    want_keys, want_aggs = rows(want, decode=True)
    assert got_keys == want_keys
    for name in got_aggs:
        assert got_aggs[name].dtype == want_aggs[name].dtype, name
        np.testing.assert_array_equal(
            got_aggs[name], want_aggs[name], err_msg=name
        )


# ----------------------------------------------------------------------
# Packed key index vs the np.unique(axis=0) oracle
# ----------------------------------------------------------------------
# Per key column kind: the pool a column's values are drawn from, in
# the order a stream meets them — a later partition draws from a longer
# prefix, so ranges and dictionaries grow mid-stream (state re-pack).
KEY_POOLS = {
    "int8": np.array([-128, 127, 0, -1, 5, 3], dtype=np.int8),
    "int64": np.array([0, 3, -7, 2, 1000, -1001], dtype=np.int64),
    # Range ~2**29 each: three of them overflow 2**62 (prefix fold).
    "wide": np.array([0, 2**29, 77, -(2**28), 2**28, 1], dtype=np.int64),
    # Range 2**63: no offset coding, and no int64 span arithmetic.
    "huge": np.array(
        [2**62, -(2**62), 2**62 - 1, 1 - 2**62, 2**63 - 1, -(2**63)],
        dtype=np.int64,
    ),
    "uint8": np.array([255, 0, 7, 200, 8, 9], dtype=np.uint8),
    "uint64": np.array([2**64 - 1, 0, 2**63, 5, 2**63 + 1, 6], dtype=np.uint64),
    "bool": np.array([True, False, True, False, False, True]),
    "float32": np.array([0.5, -0.5, 2.0, 1e30, -1e30, 0.25], dtype=np.float32),
    # Whole numbers, then fractions: an offset column turns dictionary.
    "float64": np.array([3.0, -2.0, 4.0, 0.1, -1e300, 1e-300]),
    "whole": np.array([600.0, -1800.0, 0.0, 1200.0, 2.0**40, -(2.0**61)]),
}


@st.composite
def key_streams(draw):
    kinds = draw(
        st.lists(st.sampled_from(sorted(KEY_POOLS)), min_size=1, max_size=3)
    )
    sizes = draw(st.lists(st.integers(0, 25), min_size=1, max_size=4))
    partitions = []
    for p, n in enumerate(sizes):
        reach = min(6, 2 + 2 * p)
        index = st.lists(st.integers(0, reach - 1), min_size=n, max_size=n)
        partitions.append(
            [KEY_POOLS[kind][np.asarray(draw(index), dtype=np.intp)] for kind in kinds]
        )
    return partitions


@settings(max_examples=300, deadline=None)
@given(key_streams())
def test_packed_key_index_equals_unique_axis0_oracle(partitions):
    """Grouping a partition, and merging 1-4 partitions into one state,
    finds the distinct key rows, their order, each row's group and the
    group sizes that ``np.unique(axis=0)`` finds; after each merge the
    touched groups are the partition's distinct rows, finalized as the
    state's groups with those keys."""
    state = ArrayGroupState([agg.count(), agg.sum_("v")])
    seen = []
    for columns in partitions:
        rows = np.stack(columns, axis=1)
        uniques, _, inverse, counts = unique_rows(rows, KeyPacking(rows).codes)
        for got, want in zip((uniques, inverse, counts), oracle_unique_rows(rows)):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        if len(rows) == 0:
            continue  # the executor never merges an empty partition
        seen.append(rows)
        weights = np.arange(len(rows), dtype=np.float64)
        distinct = oracle_unique_rows(rows)[0]
        assert state.update(columns, Partition({"v": weights})) == len(distinct)

        every = np.concatenate(seen)
        uniques, inverse, counts = oracle_unique_rows(every)
        assert state.keys.dtype == uniques.dtype
        np.testing.assert_array_equal(state.keys, uniques)
        np.testing.assert_array_equal(state.counts, counts)
        touched = state.touched()
        np.testing.assert_array_equal(touched.keys, distinct)
        names = [f"k{i}" for i in range(len(columns))]
        # A uint64 column beside a signed one is held as float64, and its
        # largest values do not cast back exactly; both sides cast alike.
        with np.errstate(invalid="ignore"):
            got = touched.to_partition(names).columns
            want = state.select(np.unique(inverse[-len(rows):])).to_partition(names)
        for name, column in want.columns.items():
            assert got[name].dtype == column.dtype
            np.testing.assert_array_equal(got[name], column)
        all_weights = np.concatenate([np.arange(len(r)) for r in seen])
        np.testing.assert_array_equal(
            state.values[1], np.bincount(inverse, weights=all_weights)
        )
