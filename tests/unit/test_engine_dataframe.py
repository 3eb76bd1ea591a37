"""DataFrame transformations and actions."""

import numpy as np
import pytest

from repro.engine import Session, agg, col, lit
from repro.engine.partition import Partition


@pytest.fixture
def session():
    return Session(default_parallelism=3)


@pytest.fixture
def df(session):
    return session.create_dataframe(
        {
            "x": np.arange(10, dtype=np.int64),
            "y": np.arange(10, dtype=np.float64) * 2,
            "g": np.arange(10, dtype=np.int64) % 3,
        }
    )


class TestCreation:
    def test_from_dict(self, df):
        assert df.count() == 10
        assert df.columns == ["x", "y", "g"]

    def test_from_tuples(self, session):
        out = session.create_dataframe(
            [(1, "a"), (2, "b")], columns=["n", "s"]
        )
        assert out.collect() == [{"n": 1, "s": "a"}, {"n": 2, "s": "b"}]

    def test_from_dicts(self, session):
        out = session.create_dataframe([{"n": 1}, {"n": 2}])
        assert out.count() == 2

    def test_tuples_need_columns(self, session):
        with pytest.raises(ValueError, match="columns"):
            session.create_dataframe([(1,)])

    def test_partition_count(self, session):
        out = session.create_dataframe({"x": np.arange(10)}, num_partitions=4)
        assert out.num_partitions() == 4

    def test_empty_dict_data(self, session):
        out = session.create_dataframe({"x": np.empty(0, dtype=np.int64)})
        assert out.count() == 0
        assert out.columns == ["x"]

    def test_session_takes_no_parallelism(self):
        with pytest.raises(TypeError):
            Session(parallelism=2)


class TestNarrowOps:
    def test_select_names(self, df):
        assert df.select("x").columns == ["x"]
        assert df.select("x", "g").count() == 10

    def test_select_expressions(self, df):
        out = df.select((col("x") + col("y")).alias("z"))
        assert out.columns == ["z"]
        assert [r["z"] for r in out.collect()] == [i * 3.0 for i in range(10)]

    def test_select_invalid(self, df):
        with pytest.raises(TypeError):
            df.select(3.14)

    def test_filter(self, df):
        out = df.filter(col("x") >= 7)
        assert [r["x"] for r in out.collect()] == [7, 8, 9]

    def test_where_alias(self, df):
        assert df.where(col("x") < 2).count() == 2

    def test_with_column(self, df):
        out = df.with_column("double", col("x") * 2)
        assert out.columns[-1] == "double"
        assert out.collect()[3]["double"] == 6

    def test_with_column_replace(self, df):
        out = df.with_column("x", lit(0))
        assert out.columns.count("x") == 1
        assert all(r["x"] == 0 for r in out.collect())

    def test_drop(self, df):
        assert df.drop("y").columns == ["x", "g"]

    def test_limit_within_partition(self, df):
        assert df.limit(2).count() == 2

    def test_limit_across_partitions(self, df):
        assert df.limit(8).count() == 8
        assert [r["x"] for r in df.limit(5).collect()] == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize(
        "n, pulled", [(0, 0), (100, 1), (150, 2), (200, 2), (1000, 4)]
    )
    def test_limit_pulls_only_the_partitions_it_needs(self, n, pulled):
        calls = []

        def spy(part):
            calls.append(part.num_rows)
            return part

        df = (
            Session()
            .create_dataframe({"x": np.arange(400)}, num_partitions=4)
            .map_partitions(spy)
            .limit(n)
        )
        np.testing.assert_array_equal(
            df.to_columns()["x"], np.arange(min(n, 400))
        )
        assert calls == [100] * pulled

    def test_take(self, df):
        assert len(df.take(4)) == 4

    def test_map_partitions(self, df):
        def double(part: Partition) -> Partition:
            return part.with_column("x", part.columns["x"] * 2)

        out = df.map_partitions(double)
        assert [r["x"] for r in out.collect()][:3] == [0, 2, 4]

    def test_chain_is_lazy(self, df):
        calls = []

        def spy(part):
            calls.append(1)
            return part

        chained = df.map_partitions(spy).filter(col("x") > 100)
        assert not calls  # nothing ran yet
        chained.count()
        assert calls  # ran during the action


class TestGroupBy:
    def test_count(self, df):
        out = {r["g"]: r["count"] for r in df.group_by("g").agg(agg.count()).collect()}
        assert out == {0: 4, 1: 3, 2: 3}

    def test_multiple_aggs(self, df):
        rows = (
            df.group_by("g")
            .agg(agg.sum_("y", "total"), agg.mean("x", "avg_x"),
                 agg.min_("x", "lo"), agg.max_("x", "hi"))
            .collect()
        )
        assert rows[0]["total"] == 0 + 6 + 12 + 18
        assert rows[1]["avg_x"] == pytest.approx((1 + 4 + 7) / 3)
        assert rows[2]["lo"] == 2 and rows[2]["hi"] == 8

    def test_multi_key(self, session):
        out = session.create_dataframe(
            {"a": [0, 0, 1, 1], "b": [0, 0, 0, 1], "v": [1.0, 2.0, 3.0, 4.0]}
        )
        rows = (
            out.group_by("a", "b").agg(agg.sum_("v", "s")).collect()
        )
        assert [(r["a"], r["b"], r["s"]) for r in rows] == [
            (0, 0, 3.0), (1, 0, 3.0), (1, 1, 4.0),
        ]

    def test_group_keys_keep_int_dtype(self, df):
        rows = df.group_by("g").agg(agg.count()).collect()
        assert all(isinstance(r["g"], (int, np.integer)) for r in rows)

    def test_object_keys(self, session):
        out = session.create_dataframe(
            {"k": np.array(["a", "b", "a"], dtype=object), "v": [1.0, 2.0, 3.0]}
        )
        rows = out.group_by("k").agg(agg.sum_("v", "s")).collect()
        result = {r["k"]: r["s"] for r in rows}
        assert result == {"a": 4.0, "b": 2.0}

    def test_empty_group_by(self, session):
        out = session.create_dataframe({"k": np.empty(0, dtype=np.int64),
                                        "v": np.empty(0)})
        assert out.group_by("k").agg(agg.count()).count() == 0

    def test_requires_key_and_spec(self, df):
        with pytest.raises(ValueError):
            df.group_by()
        with pytest.raises(ValueError):
            df.group_by("g").agg()

    def test_agg_spec_validation(self):
        with pytest.raises(ValueError):
            agg.AggSpec("out", "*", "sum")
        with pytest.raises(ValueError):
            agg.AggSpec("out", "x", "median")


class TestOrderAndShow:
    def test_show_formats(self, df):
        text = df.show(3)
        assert "x" in text.splitlines()[0]
        assert len(text.splitlines()) == 5  # header + sep + 3 rows

    def test_explain(self, df):
        plan = df.filter(col("x") > 1).select("x").explain()
        assert "Project" in plan and "Filter" in plan and "Source" in plan

    def test_to_columns(self, df):
        cols = df.to_columns()
        np.testing.assert_array_equal(cols["x"], np.arange(10))

    def test_to_columns_empty(self, session):
        out = session.create_dataframe({"x": np.empty(0, dtype=np.int64)})
        assert out.to_columns()["x"].size == 0
