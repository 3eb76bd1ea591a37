"""Property test: the optimizer never changes results.

Random plans are composed from the full transformation vocabulary
(project / filter / with_column incl. UDFs / drop / limit / union /
group_by) over randomly generated partitioned data,
and executed twice — the plan as written, straight through
``executor.iter_partitions``, and the optimized plan every action
runs.  The collected rows must be identical (same order, same values,
NaN == NaN)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Session, agg, col, udf
from repro.engine.executor import iter_partitions


def _rows_equal(a, b) -> bool:
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        if set(ra) != set(rb):
            return False
        for name in ra:
            va, vb = ra[name], rb[name]
            fa = isinstance(va, (float, np.floating))
            fb = isinstance(vb, (float, np.floating))
            if fa and fb:
                if np.isnan(va) and np.isnan(vb):
                    continue
                if not np.isclose(va, vb, equal_nan=True):
                    return False
            elif va != vb:
                return False
    return True


@st.composite
def programs(draw):
    """A random dataframe program: (n_rows, n_partitions, ops)."""
    n = draw(st.integers(min_value=0, max_value=40))
    parts = draw(st.integers(min_value=1, max_value=4))
    columns = ["k", "v", "w"]
    ops = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        choices = ["filter", "with_column", "limit"]
        if len(columns) > 1:
            choices += ["select", "drop"]
        if "k" in columns:
            choices += ["group_by"]
        kind = draw(st.sampled_from(choices))
        if kind == "filter":
            target = draw(st.sampled_from(columns))
            thresh = draw(st.integers(min_value=-2, max_value=8))
            ops.append(("filter", target, thresh))
        elif kind == "with_column":
            source = draw(st.sampled_from(columns))
            use_udf = draw(st.booleans())
            name = f"c{len(ops)}"
            ops.append(("with_column", name, source, use_udf))
            if name not in columns:
                columns.append(name)
        elif kind == "select":
            subset = draw(
                st.lists(
                    st.sampled_from(columns),
                    min_size=1,
                    max_size=len(columns),
                    unique=True,
                )
            )
            ops.append(("select", subset))
            columns = list(subset)
        elif kind == "drop":
            victim = draw(st.sampled_from(columns[1:]))
            ops.append(("drop", victim))
            columns = [c for c in columns if c != victim]
        elif kind == "limit":
            ops.append(("limit", draw(st.integers(min_value=0, max_value=50))))
        elif kind == "group_by":
            value = draw(st.sampled_from(columns))
            ops.append(("group_by", value))
            columns = ["k", "s", "n"]
    return n, parts, ops


def _build(n, parts, ops):
    session = Session(default_parallelism=parts)
    rng = np.random.default_rng(7)
    df = session.create_dataframe(
        {
            "k": rng.integers(0, 6, n).astype(np.int64),
            "v": np.round(rng.uniform(-5, 5, n), 3),
            "w": np.round(rng.uniform(0, 10, n), 3),
        }
    )
    for op in ops:
        kind = op[0]
        if kind == "filter":
            df = df.filter(col(op[1]) > op[2])
        elif kind == "with_column":
            _, name, source, use_udf = op
            expr = (
                udf(lambda arr: arr * 2.0 + 1.0, [source], name="affine")
                if use_udf
                else col(source) * 2 + 1
            )
            df = df.with_column(name, expr)
        elif kind == "select":
            df = df.select(*op[1])
        elif kind == "drop":
            df = df.drop(op[1])
        elif kind == "limit":
            df = df.limit(op[1])
        elif kind == "group_by":
            df = df.group_by("k").agg(
                agg.sum_(op[1], "s"), agg.count(name="n")
            )
    return df


@settings(max_examples=60, deadline=None)
@given(programs())
def test_optimized_equals_unoptimized(program):
    df = _build(*program)
    baseline = [row for part in iter_partitions(df.plan) for row in part.rows()]
    assert _rows_equal(baseline, df.collect())
