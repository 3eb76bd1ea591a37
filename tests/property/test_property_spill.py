"""Property tests: spilled execution is bit-identical to in-memory.

Every test runs the same caching pipeline twice — once under
``Session(memory_budget=...)`` with a budget chosen to spill none,
some or every partition, once unbounded — and asserts dtype *and*
value equality with ``array_equal``, not ``isclose``: the spill paths
must produce the exact same bits, NaN payloads and object-column
contents included.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Session, col

floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_subnormal=False
)  # NaN allowed: a spilled float column must restore bit for bit
ints = st.integers(min_value=-1000, max_value=1000)
words = st.sampled_from(["apple", "pear", "quince", "", "apple "])

#: Budgets spanning the interesting regimes: a tiny budget spills
#: almost every partition, a medium one spills a few, and a huge one
#: must take the exact in-memory code path (nothing spilled).
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
        cached = df.filter(col("i") > 10_000_000).cache()  # empties all
        cached.count()
        return cached

    run_both(frame, build)


@settings(max_examples=20, deadline=None)
@given(mixed_frames())
def test_chained_materializers_identical(frame):
    """cache → filter → cache chained under one budget."""
    def build(df, _session):
        return df.cache().filter(col("i") > 0).cache()

    run_both(frame, build)
