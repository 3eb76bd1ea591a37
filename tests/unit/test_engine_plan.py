"""Logical plan nodes: labels, tree rendering, dispatch errors."""

import pytest

from repro.engine import Session, agg, col
from repro.engine import plan as P
from repro.engine.executor import iter_partitions, plan_column_names


@pytest.fixture
def session():
    return Session(default_parallelism=2)


class TestDescribe:
    def test_full_tree(self, session):
        df = (
            session.create_dataframe({"k": [1, 2], "v": [1.0, 2.0]})
            .filter(col("v") > 0)
            .with_column("w", col("v") * 2)
            .drop("v")
            .group_by("k")
            .agg(agg.sum_("w", "s"))
            .limit(5)
        )
        text = df.explain()
        for label in ("Limit[5]", "GroupByAgg", "Drop[v]",
                      "WithColumn[w]", "Filter", "Source"):
            assert label in text
        # Indentation encodes depth.
        lines = text.splitlines()
        assert lines[0].startswith("Limit")
        assert lines[-1].strip().startswith("Source")

    def test_map_partitions_label(self, session):
        df = session.create_dataframe({"k": [1]}).map_partitions(
            lambda p: p, label="my_step"
        )
        assert "MapPartitions[my_step]" in df.explain()

class TestDispatch:
    def test_unknown_node_rejected(self):
        class Alien(P.PlanNode):
            pass

        with pytest.raises(TypeError, match="unknown plan node"):
            list(iter_partitions(Alien()))

    def test_unknown_node_schema_rejected(self):
        class Alien(P.PlanNode):
            pass

        with pytest.raises(TypeError):
            plan_column_names(Alien())

class TestColumnNames:
    def test_through_every_node(self, session):
        df = session.create_dataframe({"a": [1], "b": [2.0]})
        assert df.limit(1).columns == ["a", "b"]
        assert df.cache().columns == ["a", "b"]
        assert df.map_partitions(lambda p: p).columns == ["a", "b"]
        grouped = df.group_by("a").agg(agg.count(name="n"))
        assert grouped.columns == ["a", "n"]
