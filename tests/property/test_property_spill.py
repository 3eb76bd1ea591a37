"""Property tests: spilled execution is bit-identical to in-memory.

Every test runs the same materializing pipeline twice — once under
``Session(memory_budget=...)`` with a budget chosen to force zero, one,
or many spill runs, once unbounded — and asserts dtype *and* value
equality with ``array_equal``, not ``isclose``: the spill paths must
produce the exact same bits, including NaN ordering under ``order_by``
and object-column contents.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Session, col

floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_subnormal=False
)  # NaN allowed: order_by must place NaNs exactly like the in-memory sort
ints = st.integers(min_value=-1000, max_value=1000)
small_ints = st.integers(min_value=-3, max_value=3)
words = st.sampled_from(["apple", "pear", "quince", "", "apple "])

#: Budgets spanning the interesting regimes: a tiny budget spills
#: almost every partition (many runs), a medium one spills a few, and
#: a huge one must take the exact in-memory code path (zero runs).
BUDGETS = [512, 4096, 1 << 30]


@st.composite
def mixed_frames(draw):
    n = draw(st.integers(min_value=0, max_value=60))
    return (
        draw(st.lists(ints, min_size=n, max_size=n)),
        draw(st.lists(floats, min_size=n, max_size=n)),
        draw(st.lists(st.booleans(), min_size=n, max_size=n)),
        draw(st.lists(words, min_size=n, max_size=n)),
        draw(st.integers(min_value=1, max_value=5)),  # partitions
        draw(st.sampled_from(BUDGETS)),
    )


def _data(i, f, b, s):
    str_col = np.empty(len(s), dtype=object)
    str_col[:] = s
    return {
        "i": np.asarray(i, dtype=np.int64),
        "f": np.asarray(f, dtype=np.float64),
        "b": np.asarray(b, dtype=bool),
        "s": str_col,
    }


def assert_frames_identical(left: dict, right: dict):
    assert list(left) == list(right)
    for name in left:
        assert left[name].dtype == right[name].dtype, name
        np.testing.assert_array_equal(left[name], right[name], err_msg=name)


def run_both(frame, build):
    i, f, b, s, parts, budget = frame
    data = _data(i, f, b, s)
    with Session(default_parallelism=parts, memory_budget=budget) as spilling:
        unbounded = Session(default_parallelism=parts)
        spilled = build(
            spilling.create_dataframe(data, num_partitions=parts), spilling
        ).to_columns()
        reference = build(
            unbounded.create_dataframe(data, num_partitions=parts), unbounded
        ).to_columns()
    assert_frames_identical(spilled, reference)


@settings(max_examples=40, deadline=None)
@given(mixed_frames())
def test_order_by_ascending_identical(frame):
    run_both(frame, lambda df, _s: df.order_by("i", "f"))


@settings(max_examples=40, deadline=None)
@given(mixed_frames())
def test_order_by_descending_identical(frame):
    run_both(frame, lambda df, _s: df.order_by("f", ascending=False))


@settings(max_examples=40, deadline=None)
@given(mixed_frames())
def test_order_by_duplicate_heavy_identical(frame):
    """Keys with tiny cardinality: key groups span spill chunks, so
    stable tie order across runs is exercised hard."""
    run_both(
        frame,
        lambda df, _s: df.with_column("d", col("i") % 3).order_by("d"),
    )


@settings(max_examples=40, deadline=None)
@given(mixed_frames())
def test_order_by_object_keys_identical(frame):
    run_both(frame, lambda df, _s: df.order_by("s", "i"))


@settings(max_examples=30, deadline=None)
@given(mixed_frames())
def test_cache_replay_identical(frame):
    def build(df, _session):
        cached = df.cache()
        cached.count()  # materialize, then replay below
        return cached

    run_both(frame, build)


@settings(max_examples=20, deadline=None)
@given(mixed_frames())
def test_empty_partitions_identical(frame):
    """Empty and all-empty partitions flow through the spill paths the
    same way they flow through the in-memory ones."""
    def build(df, _session):
        return df.filter(col("i") > 10_000_000).order_by("i")  # empties all

    run_both(frame, build)


@settings(max_examples=20, deadline=None)
@given(mixed_frames())
def test_chained_materializers_identical(frame):
    """order_by → cache chained under one budget."""
    def build(df, _session):
        return df.order_by("i").cache()

    run_both(frame, build)
