"""The logical-plan optimizer: its two rewrites (column pruning and
WithColumn fusion), the nodes it leaves where they were written, and
the vectorized group-by that rode along."""

import numpy as np
import pytest

from repro.engine import Partition, Schema, Session, agg, col, udf
from repro.engine import plan as P
from repro.engine.executor import iter_partitions
from repro.engine.optimizer import optimize


@pytest.fixture
def session():
    return Session(default_parallelism=2)


@pytest.fixture
def df(session):
    return session.create_dataframe(
        {
            "a": np.array([1, 2, 3, 4], dtype=np.int64),
            "b": np.array([10.0, 20.0, 30.0, 40.0]),
            "c": np.array([5.0, 6.0, 7.0, 8.0]),
        }
    )


def _find(node, node_type):
    """All nodes of a type in the plan tree (pre-order)."""
    found = [node] if isinstance(node, node_type) else []
    for child in node.children:
        found.extend(_find(child, node_type))
    return found


class TestFilterRules:
    """Filters stay where they were written."""
    def test_filter_not_pushed_past_udf_dependency(self, df):
        plan = (
            df.with_column("u", udf(lambda a: a * 2.0, ["a"], name="dbl"))
            .filter(col("u") > 4)
            .plan
        )
        opt = optimize(plan)
        # The predicate depends on a UDF-computed column: it must stay
        # above the WithColumn so the UDF is never duplicated.
        assert isinstance(opt, P.Filter)
        assert isinstance(opt.child, (P.WithColumn, P.WithColumns))

    def test_aggregate_filter_stays_above_group_by(self, df):
        plan = (
            df.group_by("a")
            .agg(agg.sum_("b", "s"))
            .filter(col("s") > 10)
            .plan
        )
        opt = optimize(plan)
        assert isinstance(opt, P.Filter)
        assert isinstance(opt.child, P.GroupByAgg)

    def test_filter_not_pushed_past_map_partitions(self, df):
        plan = (
            df.map_partitions(lambda p: p, label="opaque")
            .filter(col("a") > 2)
            .plan
        )
        opt = optimize(plan)
        assert isinstance(opt, P.Filter)
        assert isinstance(opt.child, P.MapPartitions)


class TestFusionAndLimit:
    def test_with_column_chain_fuses(self, df):
        plan = (
            df.with_column("d", col("a") + 1)
            .with_column("e", col("d") * 2)
            .with_column("f", col("e") - col("b"))
            .plan
        )
        opt = optimize(plan)
        fused = _find(opt, P.WithColumns)
        assert len(fused) == 1
        assert [name for name, _ in fused[0].items] == ["d", "e", "f"]
        assert not _find(opt, P.WithColumn)

    def test_with_column_replace_chain_still_correct(self, session):
        df = session.create_dataframe({"x": [1.0, 2.0]})
        out = df.with_column("x", col("x") + 1).with_column("x", col("x") * 10)
        assert out.collect() == [{"x": 20.0}, {"x": 30.0}]

    def test_limit_not_pushed_below_filter(self, df):
        plan = df.filter(col("a") > 1).limit(2).plan
        opt = optimize(plan)
        assert isinstance(opt, P.Limit)
        assert isinstance(opt.child, P.Filter)


class TestColumnPruning:
    def test_source_narrowed_to_used_columns(self, df):
        plan = df.with_column("d", col("a") + 1).select("d").plan
        opt = optimize(plan)
        narrowing = [
            p
            for p in _find(opt, P.Project)
            if isinstance(p.child, P.Source)
        ]
        assert narrowing
        assert [name for name, _ in narrowing[0].exprs] == ["a"]

    def test_filter_input_narrowed_to_live_columns(self, df):
        """A filter gathers every column it is handed, so it is handed
        only what its predicate and the operators above it read."""
        out = (
            df.with_column("d", col("c") * 2)
            .filter(col("b") > 15)
            .group_by("a")
            .agg(agg.sum_("d", "s"))
        )
        opt = optimize(out.plan)
        (flt,) = _find(opt, P.Filter)
        assert isinstance(flt.child, P.Project)
        assert [name for name, _ in flt.child.exprs] == ["a", "b", "d"]
        as_written = [r for p in iter_partitions(out.plan) for r in p.rows()]
        assert out.collect() == as_written

    def test_unused_aggregate_pruned(self, df):
        plan = (
            df.group_by("a")
            .agg(agg.sum_("b", "s"), agg.max_("c", "m"))
            .select("a", "s")
            .plan
        )
        opt = optimize(plan)
        gb = _find(opt, P.GroupByAgg)[0]
        assert [a.out_name for a in gb.aggs] == ["s"]

    def test_pruning_stops_at_map_partitions(self, df):
        plan = (
            df.map_partitions(lambda p: p, label="opaque").select("a").plan
        )
        opt = optimize(plan)
        mp = _find(opt, P.MapPartitions)[0]
        # The opaque function may read anything: the source keeps all
        # columns below it.
        assert isinstance(mp.child, P.Source)

    def test_cache_subtree_instance_preserved(self, df):
        cached = df.select("a", "b").cache()
        plan = cached.filter(col("a") > 1).plan
        cache_node = _find(plan, P.Cache)[0]
        opt = optimize(plan)
        assert _find(opt, P.Cache)[0] is cache_node

    def test_optimized_results_identical(self, df):
        out = (
            df.with_column("d", col("a") * 2)
            .filter(col("d") > 2)
            .select("a", "d", "b")
        )
        as_written = [r for p in iter_partitions(out.plan) for r in p.rows()]
        assert out.collect() == as_written


class TestWiring:
    def test_explain_default_is_logical_only(self, df):
        text = df.select("a").explain()
        assert "Logical Plan" not in text
        assert "Project" in text

    def test_explain_optimized_renders_both(self, df):
        text = df.with_column("d", col("a") + 1).select("d").explain(
            optimized=True
        )
        assert "== Logical Plan ==" in text
        assert "== Optimized Plan ==" in text
        # The optimized section shows the chain fused into one
        # WithColumns over the narrowed source scan.
        optimized = text.split("== Optimized Plan ==")[1]
        assert optimized.strip().splitlines() == [
            "Project[d]",
            "  WithColumns[d]",
            "    Project[a]",
            "      Source[2 partitions]",
        ]


class TestVectorizedGroupBySemantics:
    def test_mid_stream_object_key_conversion(self):
        session = Session(default_parallelism=1)
        a = {"k": np.array([1, 2], dtype=np.int64), "v": np.array([1.0, 2.0])}
        bk = np.empty(2, dtype=object)
        bk[:] = [1, 3]
        b = {"k": bk, "v": np.array([10.0, 20.0])}
        df = session.from_partitions(
            [lambda: Partition(a), lambda: Partition(b)],
            Schema([("k", object), ("v", np.float64)]),
        )
        rows = df.group_by("k").agg(agg.sum_("v", "s")).collect()
        got = {int(r["k"]): r["s"] for r in rows}
        assert got == {1: 11.0, 2: 2.0, 3: 20.0}

    def test_many_partitions_merge(self):
        session = Session(default_parallelism=7)
        n = 1000
        df = session.create_dataframe(
            {
                "k": np.arange(n, dtype=np.int64) % 13,
                "v": np.ones(n, dtype=np.float64),
            }
        )
        rows = (
            df.group_by("k")
            .agg(agg.count(name="n"), agg.sum_("v", "s"),
                 agg.min_("v", "lo"), agg.max_("v", "hi"),
                 agg.mean("v", "m"))
            .collect()
        )
        assert len(rows) == 13
        assert sum(r["n"] for r in rows) == n
        for r in rows:
            assert r["s"] == r["n"] and r["lo"] == 1.0 and r["hi"] == 1.0
            assert r["m"] == 1.0
