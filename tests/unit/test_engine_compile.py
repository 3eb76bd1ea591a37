"""Tests for the expression/stage compiler (``repro.engine.compile``)
and the executor's stage path.

The contract under test everywhere: compiled execution is
*bit-identical* to the tree-walking ``Expr.evaluate``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import Session, col, lit, udf
from repro.engine import plan as P
from repro.engine.compile import (
    StageRunner,
    compile_expr,
    compile_stages,
)
from repro.engine.expressions import BinaryOp, UnaryOp
from repro.engine.optimizer import optimize
from repro.engine.partition import Partition
from tests.plan_oracle import oracle_columns


@pytest.fixture
def part():
    return Partition(
        {
            "a": np.array([1, 2, 3, 4], dtype=np.int64),
            "b": np.array([0.5, 1.5, 2.5, 3.5]),
            "s": np.array(["x", "y", "x", "z"], dtype=object),
        }
    )


def assert_identical(actual, expected):
    assert actual.dtype == expected.dtype
    np.testing.assert_array_equal(actual, expected)


class TestCompileExpr:
    def test_program_is_flat_postfix(self):
        compiled = compile_expr((col("a") + lit(1)) * col("b"))
        kinds = [instr[0] for instr in compiled.program]
        assert kinds == ["col", "lit", "ufunc", "col", "ufunc"]

    def test_matches_interpreter(self, part):
        expr = (col("a") + lit(1)) * col("b") - lit(0.25)
        compiled = compile_expr(expr)
        assert_identical(
            compiled.evaluate(part.columns, part.num_rows),
            expr.evaluate(part),
        )

    def test_replay_path_matches_first_run(self, part):
        """Second evaluation takes the in-place/pooled path; bits must
        not change."""
        expr = (col("a") * lit(2)) + (col("b") / lit(0.5))
        compiled = compile_expr(expr)
        first = compiled.evaluate(part.columns, part.num_rows).copy()
        for _ in range(3):
            again = compiled.evaluate(part.columns, part.num_rows)
            assert_identical(again, first)

    def test_dtype_change_between_calls_falls_back(self):
        """Same program, different column dtypes: the recorded replay
        must not force the first run's dtype onto the second."""
        expr = col("a") + lit(1)
        compiled = compile_expr(expr)
        for arr in (
            np.array([1, 2], dtype=np.int64),
            np.array([1.0, 2.0], dtype=np.float32),
            np.array([1, 2], dtype=np.int64),  # and back again
        ):
            expected = expr.evaluate(Partition({"a": arr}))
            assert_identical(compiled.evaluate({"a": arr}, 2), expected)

    def test_bare_column_aliases_input(self, part):
        """A bare column reference returns the partition's array
        itself, exactly like Column.evaluate."""
        compiled = compile_expr(col("a"))
        assert compiled.evaluate(part.columns, part.num_rows) is part.columns["a"]

    def test_missing_column_raises_keyerror(self, part):
        compiled = compile_expr(col("nope") + lit(1))
        with pytest.raises(KeyError):
            compiled.evaluate(part.columns, part.num_rows)

    def test_string_literal_comparison(self, part):
        expr = col("s") == lit("x")
        compiled = compile_expr(expr)
        assert_identical(
            compiled.evaluate(part.columns, part.num_rows),
            expr.evaluate(part),
        )

    def test_udf_inline(self, part):
        expr = udf(lambda a, b: np.hypot(a, b), [col("a"), col("b")], "h")
        compiled = compile_expr(expr)
        assert_identical(
            compiled.evaluate(part.columns, part.num_rows),
            expr.evaluate(part),
        )

    def test_udf_returning_input_is_never_clobbered(self, part):
        """An identity UDF hands back one of its inputs; downstream
        in-place execution must not write into the source column."""
        expr = udf(lambda a: a, [col("a")], "ident") + lit(10)
        compiled = compile_expr(expr)
        original = part.columns["a"].copy()
        for _ in range(3):
            out = compiled.evaluate(part.columns, part.num_rows)
            assert_identical(part.columns["a"], original)
            assert_identical(out, original + 10)

    def test_udf_wrong_length_raises(self, part):
        expr = udf(lambda a: a[:2], [col("a")], "trunc")
        compiled = compile_expr(expr)
        with pytest.raises(ValueError, match="trunc"):
            compiled.evaluate(part.columns, part.num_rows)

    def test_non_ufunc_operator_lowers_to_call(self, part):
        """An operator node around a plain function (not a ufunc) is a
        ``call`` instruction, evaluated like ``Expr.evaluate`` does."""
        weird = UnaryOp(
            BinaryOp(col("a"), col("b"), lambda a, b: a + b, "+"),
            lambda a: -a,
            "-",
        ) * lit(2.0)
        compiled = compile_expr(weird)
        kinds = [instr[0] for instr in compiled.program]
        assert kinds == ["col", "col", "call", "call", "lit", "ufunc"]
        for _ in range(2):  # natural run, then the replay path
            assert_identical(
                compiled.evaluate(part.columns, part.num_rows),
                weird.evaluate(part),
            )

    def test_repr(self):
        compiled = compile_expr(col("a") + lit(1))
        assert "CompiledExpr" in repr(compiled)


class TestStageRunner:
    def _steps(self):
        return [
            ("filter", col("a") > lit(1)),
            ("with_columns", [("c", col("a") * lit(2.0))]),
            ("project", [("c", col("c")), ("b", col("b"))]),
        ]

    def test_fused_chain_matches_interpreter(self, part):
        runner = StageRunner(self._steps())
        out = runner(part)
        keep = part.columns["a"] > 1
        expected_c = (part.columns["a"] * 2.0)[keep]
        assert list(out.columns) == ["c", "b"]
        assert_identical(out.columns["c"], expected_c)
        assert_identical(out.columns["b"], part.columns["b"][keep])

    def test_all_true_filter_returns_same_object(self, part):
        runner = StageRunner([("filter", col("a") > lit(0))])
        assert runner(part) is part

    def test_all_false_filter_empty_output(self, part):
        runner = StageRunner([("filter", col("a") > lit(100))])
        out = runner(part)
        assert out.num_rows == 0
        assert list(out.columns) == ["a", "b", "s"]

    def test_compaction_keeps_only_live_columns_internally(self, part):
        """After filter+project, dead columns must not appear in the
        output (liveness pruning is observable only via the result)."""
        runner = StageRunner(
            [
                ("filter", col("a") > lit(1)),
                ("project", [("b", col("b"))]),
            ]
        )
        out = runner(part)
        assert list(out.columns) == ["b"]
        assert_identical(out.columns["b"], part.columns["b"][part.columns["a"] > 1])

    def test_overwritten_column_keeps_its_position(self, part):
        """with_columns overwriting an existing name after a filter
        must keep the column's original dict position (interpreter
        dict-update semantics)."""
        runner = StageRunner(
            [
                ("filter", col("a") > lit(1)),
                ("with_columns", [("b", col("a") * lit(1.0))]),
            ]
        )
        out = runner(part)
        assert list(out.columns) == ["a", "b", "s"]
        keep = part.columns["a"] > 1
        assert_identical(out.columns["b"], (part.columns["a"] * 1.0)[keep])

    def test_drop_step(self, part):
        runner = StageRunner(
            [("with_columns", [("c", col("a") + lit(1))]), ("drop", ["s"])]
        )
        out = runner(part)
        assert list(out.columns) == ["a", "b", "c"]


class TestCompileStages:
    def _session(self, **kwargs):
        return Session(default_parallelism=2, **kwargs)

    def test_chain_collapses_to_single_stage(self):
        session = self._session()
        df = (
            session.create_dataframe({"a": [1, 2, 3], "b": [1.0, 2.0, 3.0]})
            .filter(col("a") > 1)
            .with_column("c", col("a") * 2)
            .select("c", "b")
        )
        plan = compile_stages(optimize(df.plan))
        assert isinstance(plan, P.CompiledStage)
        assert isinstance(plan.child, P.Source)
        assert "CompiledStage[" in plan._label()
        assert " -> " in plan._label()

    def test_stages_flag_off_keeps_logical_nodes(self):
        """``optimize`` is the logical rewrite only; stages come from
        the separate ``compile_stages`` pass."""
        session = self._session()
        df = session.create_dataframe({"a": [1, 2, 3]}).filter(col("a") > 1)
        plan = optimize(df.plan)
        assert not any(
            isinstance(n, P.CompiledStage) for n in _walk(plan)
        )

    def test_non_ufunc_chain_compiles_to_stage(self):
        from repro.engine.executor import iter_partitions

        weird = BinaryOp(col("a"), lit(1), lambda a, b: a > b, ">")
        node = P.Filter(
            P.Source([lambda: Partition({"a": np.array([1, 2])})], None),
            weird,
        )
        out = compile_stages(node)
        assert isinstance(out, P.CompiledStage)
        (result,) = iter_partitions(out)
        assert result.columns["a"].tolist() == [2]

    def test_lone_drop_not_compiled(self):
        node = P.Drop(
            P.Source([lambda: Partition({"a": np.array([1])})], None),
            ["a"],
        )
        out = compile_stages(node)
        assert isinstance(out, P.Drop)

    def test_session_compile_off_matches_compiled_results(self):
        """Fused stages, one-step stages (``optimize=False``) and the
        ``Expr.evaluate`` plan oracle agree bit for bit."""
        data = {
            "a": np.arange(50, dtype=np.int64),
            "b": np.linspace(0, 1, 50),
        }
        df = (
            self._session()
            .create_dataframe(data, num_partitions=4)
            .filter(col("a") % 3 != 0)
            .with_column("c", col("b") * col("a") + lit(0.5))
            .select("a", "c")
            .drop("a")
        )
        expected = oracle_columns(df)
        for optimize_flag in (True, False):
            parts = list(df.iter_partitions(optimize=optimize_flag))
            got = dict(Partition.concat(parts).columns)
            assert list(got) == list(expected)
            for name in got:
                assert_identical(got[name], expected[name])

    def test_plan_column_names_through_stage(self):
        session = self._session()
        df = (
            session.create_dataframe({"a": [1], "b": [2.0], "s": ["x"]})
            .filter(col("a") > 0)
            .with_column("c", col("a") + 1)
            .drop("s")
        )
        assert df.columns == ["a", "b", "c"]
        plan = compile_stages(optimize(df.plan))
        assert isinstance(plan, P.CompiledStage)
        from repro.engine.executor import plan_column_names

        assert plan_column_names(plan) == ["a", "b", "c"]


class TestExecutorFastPath:
    def test_filter_all_true_yields_input_partition(self):
        from repro.engine.executor import iter_partitions

        src_part = Partition({"a": np.array([1, 2, 3])})
        node = P.Filter(P.Source([lambda: src_part], None), col("a") > lit(0))
        out = list(iter_partitions(node))
        assert out[0] is src_part


class TestAnalyzeIntegration:
    def test_compiled_stage_reports_work_and_rows_per_s(self):
        from repro import obs

        obs.reset()
        obs.set_enabled(True)
        try:
            session = Session(default_parallelism=2)
            df = session.create_dataframe(
                {"a": np.arange(100, dtype=np.int64)}
            ).filter(col("a") > 10)
            text = df.explain(analyze=True)
            assert "CompiledStage[" in text
            assert "work=" in text
            assert "rows_per_s=" in text
        finally:
            obs.reset()


def _walk(node):
    yield node
    for child in getattr(node, "children", ()):
        yield from _walk(child)
