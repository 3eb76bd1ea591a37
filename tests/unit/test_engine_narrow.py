"""Narrow operators (filter / project / with_column / drop) as the
executor runs them, held to ``tests/plan_oracle.py`` bit for bit.

Every expression runs through ``Expr.evaluate``, node by node; the
oracle walks the logical plan as written with the same evaluator and
``Partition``'s own helpers, so what is under test is the executor's
operator code: the filter's one selection vector, the column order of
an overwrite, the all-true pass-through, and the typed errors.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import Session, col, lit, udf
from repro.engine import plan as P
from repro.engine.executor import iter_partitions, plan_column_names
from repro.engine.expressions import BinaryOp, UnaryOp
from repro.engine.partition import Partition
from repro.engine.schema import Field, Schema
from tests.plan_oracle import oracle_partitions


@pytest.fixture
def part():
    return Partition(
        {
            "a": np.array([1, 2, 3, 4], dtype=np.int64),
            "b": np.array([0.5, 1.5, 2.5, 3.5]),
            "s": np.array(["x", "y", "x", "z"], dtype=object),
        }
    )


def _source(part):
    schema = Schema([Field(n, a.dtype) for n, a in part.columns.items()])
    return P.Source([lambda: part], schema)


def run(node):
    """The executor's output partitions for ``node``."""
    return list(iter_partitions(node))


def assert_identical(actual, expected):
    assert actual.dtype == expected.dtype
    np.testing.assert_array_equal(actual, expected)


def assert_matches_oracle(node):
    got, want = run(node), oracle_partitions(node)
    assert len(got) == len(want)
    for left, right in zip(got, want):
        assert list(left.columns) == list(right.columns)
        assert left.num_rows == right.num_rows
        for name in left.columns:
            assert_identical(left.columns[name], right.columns[name])
    return got


def project(part, expr):
    return P.Project(_source(part), [("out", expr)])


class TestExpressions:
    def test_matches_oracle(self, part):
        assert_matches_oracle(
            project(part, (col("a") + lit(1)) * col("b") - lit(0.25))
        )

    def test_bare_column_aliases_input(self, part):
        """A bare column reference hands on the partition's array
        itself, not a copy."""
        (out,) = run(project(part, col("a")))
        assert out.columns["out"] is part.columns["a"]

    def test_missing_column_raises_keyerror(self, part):
        with pytest.raises(KeyError, match="nope"):
            run(project(part, col("nope") + lit(1)))

    def test_string_literal_comparison(self, part):
        assert_matches_oracle(project(part, col("s") == lit("x")))

    def test_udf_inline(self, part):
        assert_matches_oracle(
            project(
                part,
                udf(lambda a, b: np.hypot(a, b), [col("a"), col("b")], "h"),
            )
        )

    def test_udf_returning_input_is_never_clobbered(self, part):
        """An identity UDF hands back one of its inputs; nothing
        downstream may write into the source column."""
        original = part.columns["a"].copy()
        node = project(part, udf(lambda a: a, [col("a")], "ident") + lit(10))
        for _ in range(3):
            (out,) = run(node)
            assert_identical(part.columns["a"], original)
            assert_identical(out.columns["out"], original + 10)

    def test_udf_wrong_length_raises(self, part):
        with pytest.raises(ValueError, match="trunc"):
            run(project(part, udf(lambda a: a[:2], [col("a")], "trunc")))

    def test_non_ufunc_operator_matches_oracle(self, part):
        """An operator node around a plain function (not a ufunc)."""
        weird = UnaryOp(
            BinaryOp(col("a"), col("b"), lambda a, b: a + b, "+"),
            lambda a: -a,
            "-",
        ) * lit(2.0)
        assert_matches_oracle(project(part, weird))


class TestNarrowOperators:
    def test_chain_matches_oracle(self, part):
        node = P.Project(
            P.WithColumn(
                P.Filter(_source(part), col("a") > lit(1)),
                "c",
                col("a") * lit(2.0),
            ),
            [("c", col("c")), ("b", col("b"))],
        )
        (out,) = assert_matches_oracle(node)
        assert list(out.columns) == ["c", "b"]
        assert out.num_rows == 3

    def test_all_true_filter_returns_same_object(self, part):
        (out,) = run(P.Filter(_source(part), col("a") > lit(0)))
        assert out is part

    def test_filter_all_true_yields_input_partition(self):
        """The pass-through holds for a source with no declared schema."""
        src_part = Partition({"a": np.array([1, 2, 3])})
        node = P.Filter(P.Source([lambda: src_part], None), col("a") > lit(0))
        assert run(node)[0] is src_part

    def test_all_false_filter_empty_output(self, part):
        (out,) = assert_matches_oracle(
            P.Filter(_source(part), col("a") > lit(100))
        )
        assert out.num_rows == 0
        assert list(out.columns) == ["a", "b", "s"]

    def test_overwritten_column_keeps_its_position(self, part):
        """with_column over an existing name after a filter keeps the
        column's original position (dict-update semantics)."""
        node = P.WithColumn(
            P.Filter(_source(part), col("a") > lit(1)), "b", col("a") * lit(1.0)
        )
        (out,) = assert_matches_oracle(node)
        assert list(out.columns) == ["a", "b", "s"]

    def test_drop(self, part):
        node = P.Drop(P.WithColumn(_source(part), "c", col("a") + lit(1)), ["s"])
        (out,) = assert_matches_oracle(node)
        assert list(out.columns) == ["a", "b", "c"]

    def test_plan_column_names(self):
        df = (
            Session(default_parallelism=2)
            .create_dataframe({"a": [1], "b": [2.0], "s": ["x"]})
            .filter(col("a") > 0)
            .with_column("c", col("a") + 1)
            .drop("s")
        )
        assert df.columns == ["a", "b", "c"]
        assert plan_column_names(df._execution_plan()) == ["a", "b", "c"]


class TestPredicateType:
    """A filter keeps rows whose predicate is ``True``; a predicate of
    any other dtype is a ``TypeError``, as in Spark's analyzer —
    casting would keep a NaN row (``bool(nan)`` is ``True``)."""

    def test_float_predicate_raises(self):
        df = Session(default_parallelism=2).create_dataframe(
            {"a": np.array([1.0, np.nan, 0.0, 2.0])}
        )
        with pytest.raises(TypeError, match="not bool"):
            df.filter(col("a")).collect()

    @pytest.mark.parametrize(
        "predicate",
        [col("i"), col("i") + lit(1), udf(lambda i: i % 2, [col("i")], "odd")],
    )
    def test_non_bool_predicates_raise(self, predicate):
        df = Session(default_parallelism=1).create_dataframe(
            {"i": np.arange(4, dtype=np.int64)}
        )
        with pytest.raises(TypeError, match="int64"):
            df.filter(predicate).count()

    def test_bool_udf_predicate_filters(self):
        df = Session(default_parallelism=2).create_dataframe(
            {"i": np.arange(6, dtype=np.int64)}
        )
        odd = udf(lambda i: i % 2 == 1, [col("i")], "odd")
        assert df.filter(odd).to_columns()["i"].tolist() == [1, 3, 5]


class TestAnalyzeIntegration:
    def test_narrow_operator_reports_work(self):
        from repro import obs

        obs.reset()
        obs.set_enabled(True)
        try:
            session = Session(default_parallelism=2)
            df = session.create_dataframe(
                {"a": np.arange(100, dtype=np.int64)}
            ).filter(col("a") > 10)
            text = df.explain(analyze=True)
            assert "Filter[" in text
            assert "work=" in text
            assert "rows_per_s=" in text
        finally:
            obs.reset()
