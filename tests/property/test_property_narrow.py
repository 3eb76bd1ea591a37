"""Property tests: the executor's narrow operators are bit-identical
to ``tests/plan_oracle.py``.

Every test builds one pipeline and evaluates it twice — once through
the engine (the optimized plan, node by node), once through the oracle
(the logical plan as written, walked with ``Expr.evaluate`` and
``Partition``'s own helpers) — and asserts dtype *and* value equality
with ``array_equal``, not ``isclose``: the executor must produce the
exact same bits, including NaN/inf patterns from division by zero,
NEP-50 promotion results, and object-dtype comparison outputs.
"""

import threading

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Session, col, lit, udf
from repro.engine.executor import iter_partitions
from tests.plan_oracle import oracle_columns

floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_subnormal=False
)
ints = st.integers(min_value=-1000, max_value=1000)
small_ints = st.integers(min_value=-5, max_value=5)
words = st.sampled_from(["apple", "pear", "quince", "", "apple "])


@st.composite
def mixed_frames(draw):
    n = draw(st.integers(min_value=0, max_value=50))
    return (
        draw(st.lists(ints, min_size=n, max_size=n)),
        draw(st.lists(floats, min_size=n, max_size=n)),
        draw(st.lists(st.booleans(), min_size=n, max_size=n)),
        draw(st.lists(words, min_size=n, max_size=n)),
        draw(st.integers(min_value=1, max_value=4)),  # partitions
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
    i, f, b, s, parts = frame
    session = Session(default_parallelism=parts)
    df = build(
        session.create_dataframe(_data(i, f, b, s), num_partitions=parts)
    )
    assert_frames_identical(df.to_columns(), oracle_columns(df))


@settings(max_examples=40, deadline=None)
@given(mixed_frames())
def test_arithmetic_chain_identical(frame):
    run_both(
        frame,
        lambda df: df.with_column(
            "x", (col("i") + lit(1)) * col("f") - lit(0.5)
        ).select("x", "i"),
    )


@settings(max_examples=40, deadline=None)
@given(mixed_frames())
def test_division_by_zero_identical(frame):
    """0/0 -> nan, x/0 -> ±inf: the exact NaN/inf pattern must match
    ``Expr.evaluate``."""
    def build(df):
        with np.errstate(divide="ignore", invalid="ignore"):
            return df.with_column("q", col("f") / col("i")).select("q")

    with np.errstate(divide="ignore", invalid="ignore"):
        run_both(frame, build)


@settings(max_examples=40, deadline=None)
@given(mixed_frames())
def test_int_bool_promotion_identical(frame):
    """int64 + bool and bool * float promotions must come out with
    ``Expr.evaluate``'s dtypes (full-array NEP-50 semantics)."""
    run_both(
        frame,
        lambda df: df.with_column("ib", col("i") + col("b"))
        .with_column("bf", col("b") * col("f"))
        .select("ib", "bf"),
    )


@settings(max_examples=40, deadline=None)
@given(mixed_frames())
def test_object_column_comparisons_identical(frame):
    run_both(
        frame,
        lambda df: df.filter(col("s") == lit("apple")).select("s", "i"),
    )


@settings(max_examples=40, deadline=None)
@given(mixed_frames())
def test_eq_ne_predicates_identical(frame):
    run_both(
        frame,
        lambda df: df.filter(
            (col("i") % 2 == 0) & (col("b") != lit(True))
        ).select("i", "f"),
    )


@settings(max_examples=40, deadline=None)
@given(mixed_frames())
def test_filter_project_withcolumn_fusion_identical(frame):
    """The canonical narrow chain shape from the benchmarks."""
    run_both(
        frame,
        lambda df: df.filter(col("f") > lit(0.0))
        .with_column("y", col("f") * lit(2.0) + col("i"))
        .select("y", "s")
        .filter(col("y") < lit(1e6)),
    )


@settings(max_examples=40, deadline=None)
@given(mixed_frames())
def test_udf_stage_identical(frame):
    run_both(
        frame,
        lambda df: df.with_column(
            "h", udf(lambda a, b: np.hypot(a, b), [col("i"), col("f")], "h")
        ).select("h"),
    )


@settings(max_examples=30, deadline=None)
@given(mixed_frames())
def test_parallel_identical_to_serial(frame):
    """Two user threads pulling the same optimized plan at once each
    get the serial output bit-for-bit, in the same partition order —
    the executor keeps no state on plan nodes outside a ``Cache``."""
    i, f, b, s, parts = frame
    df = (
        Session(default_parallelism=parts)
        .create_dataframe(_data(i, f, b, s), num_partitions=parts)
        .filter(col("i") % 3 != 0)
        .with_column("z", col("f") * col("i") - lit(1.5))
        .select("z", "s")
    )
    plan = df._execution_plan()
    serial_parts = list(iter_partitions(plan))
    pulled = {}

    def pull(slot):
        pulled[slot] = [list(iter_partitions(plan)) for _ in range(3)]

    threads = [threading.Thread(target=pull, args=(k,)) for k in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert sorted(pulled) == [0, 1]  # both finished, neither raised
    for runs in pulled.values():
        for parallel_parts in runs:
            assert len(serial_parts) == len(parallel_parts)
            for left, right in zip(serial_parts, parallel_parts):
                assert_frames_identical(
                    dict(left.columns), dict(right.columns)
                )
