"""DataFrame.cache(): persist-and-replay semantics."""

import gc

import numpy as np
import pytest

from repro.engine import Session, col
from repro.engine import plan as P
from repro.utils.memory import MemoryBudgetExceeded, MemoryMeter


@pytest.fixture
def session():
    return Session(default_parallelism=3)


def _pipeline(session):
    return (
        session.create_dataframe(
            {"x": np.arange(40, dtype=np.int64),
             "f": np.linspace(-1.0, 1.0, 40),
             "waste": np.zeros(40)}
        )
        .filter(col("x") % 3 != 0)
        .with_column("y", col("f") * col("x") + 0.5)
        .select("y", "x")
        .drop("x")
    )


class TestCache:
    def test_skips_recompute(self, session):
        calls = []

        def spy(part):
            calls.append(1)
            return part

        df = (
            session.create_dataframe({"x": np.arange(9)})
            .map_partitions(spy)
            .cache()
        )
        assert df.count() == 9
        first = len(calls)
        assert first == 3  # one call per partition
        assert df.count() == 9
        assert len(calls) == first  # replayed, not recomputed

    def test_values_identical(self, session):
        df = (
            session.create_dataframe({"x": np.arange(10)})
            .with_column("y", col("x") * 2)
            .cache()
        )
        assert df.collect() == df.collect()
        assert df.columns == ["x", "y"]

    def test_narrow_ops_beneath_cache_same_bits_as_uncached(self):
        """What sits beneath a Cache is the optimized plan the uncached
        DataFrame would execute, with the same bits, cold and hot."""
        session = Session(default_parallelism=3)
        uncached = _pipeline(session)
        expected = uncached.to_columns()
        cached = _pipeline(session).cache()
        beneath = cached.plan.child.describe()
        assert beneath == uncached._execution_plan().describe()
        assert beneath.startswith("Drop[x]\n  Project[y]\n    WithColumns[y]")
        assert "Cache[cold]" in cached.explain()
        for _ in range(2):
            got = cached.to_columns()
            assert "Cache[hot]" in cached.explain()
            assert list(got) == list(expected)
            for name in got:
                assert got[name].dtype == expected[name].dtype
                np.testing.assert_array_equal(got[name], expected[name])

    def test_analyze_shows_the_executed_chain_beneath_a_cold_cache(
        self, session
    ):
        def chain(df):
            rendered = df.explain(analyze=True)
            return [
                line.split("  (")[0].strip()
                for line in rendered.splitlines()
                if "Cache" not in line and "==" not in line
            ]

        expected = chain(_pipeline(session))
        assert expected[0] == "Drop[x]" and expected[-1].startswith("Source[")
        assert chain(_pipeline(session).cache()) == expected

    def test_pruned_beneath_but_nothing_pushed_through(self, session):
        cached = _pipeline(session).with_column("z", col("y") * 2).cache()
        stage = cached.plan.child
        # Pruning reached the scan: the unused source column is cut by
        # a projection right above it.
        assert isinstance(stage, P.WithColumns)
        assert "Project[x, f]\n" in stage.describe()
        cached.count()
        node = cached.plan
        narrowed = cached.select("z").filter(col("z") > 0)
        executed = narrowed._execution_plan()
        # The hot node survives the optimizer with its subtree and
        # keeps its full schema: the projection and the filter stay
        # above it.
        assert isinstance(executed, P.Filter)
        assert executed.child.child is node and node.child is stage
        assert len(node.materialized) == 3
        assert all(list(p.columns) == ["y", "z"] for p in cached.iter_partitions())
        np.testing.assert_array_equal(
            narrowed.to_columns()["z"],
            cached.to_columns()["z"][cached.to_columns()["z"] > 0],
        )

    def test_early_stop_leaves_the_node_cold(self):
        """A consumer that stops before the child is exhausted (limit /
        take) must not leave a half-filled cache behind: the node stays
        cold, holds nothing on the meter, and the next full action
        fills it."""
        calls = []

        def spy(part):
            calls.append(part.num_rows)
            return part

        meter = MemoryMeter()
        session = Session(default_parallelism=4, meter=meter)
        cached = (
            session.create_dataframe({"x": np.arange(40, dtype=np.int64)})
            .map_partitions(spy)
            .cache()
        )
        assert cached.take(3) == [{"x": 0}, {"x": 1}, {"x": 2}]
        assert len(calls) == 1  # the fill streams: one partition pulled
        assert "Cache[cold]" in cached.explain()
        assert meter.current == 0
        # A limit that lands on a partition boundary pulls none extra.
        assert len(cached.take(10)) == 10
        assert len(calls) == 2
        assert "Cache[cold]" in cached.explain()
        assert cached.count() == 40
        assert "Cache[hot]" in cached.explain()
        assert len(calls) == 2 + 4
        np.testing.assert_array_equal(cached.to_columns()["x"], np.arange(40))
        assert len(calls) == 2 + 4

    def test_downstream_ops_work(self, session):
        df = session.create_dataframe({"x": np.arange(10)}).cache()
        assert df.filter(col("x") > 7).count() == 2

    def test_cached_memory_stays_resident(self):
        meter = MemoryMeter()
        metered = Session(default_parallelism=2, meter=meter)
        df = metered.create_dataframe(
            {"x": np.arange(1000, dtype=np.float64)}
        ).cache()
        df.count()
        # Cached partitions remain allocated after the action, and were
        # never on the meter twice while the cold pass handed them over
        # from the scan (the parent peaked at 12000).
        assert meter.current == 1000 * 8
        assert meter.peak == 1000 * 8

    def test_cached_memory_released_when_the_node_is_collected(self):
        meter = MemoryMeter()
        metered = Session(default_parallelism=2, meter=meter)
        meter.allocate(100)  # somebody else's bytes stay put
        for _ in range(3):
            df = metered.create_dataframe(
                {"x": np.arange(1000, dtype=np.float64)}
            ).cache()
            df.count()
            assert meter.current >= 100 + 8000
        # The session keeps its most recent executed plan
        # (``last_plan``, for profiles); the earlier two are gone.
        del df
        gc.collect()
        assert meter.current == 100 + 8000
        del metered
        gc.collect()
        assert meter.current == 100

    def test_refused_fill_leaves_the_node_cold_and_the_meter_as_found(self):
        """A meter cap that refuses the cold pass mid-fill leaves the
        meter at its pre-query value and the node cold; an uncapped
        retry fills it with what an uncapped cache holds."""
        meter = MemoryMeter(cap_bytes=5000)
        session = Session(default_parallelism=4, meter=meter)
        cached = session.create_dataframe(
            {"x": np.arange(1000, dtype=np.int64)}
        ).cache()
        with pytest.raises(MemoryBudgetExceeded):
            cached.count()
        assert meter.current == 0
        assert cached.plan.materialized is None
        assert "Cache[cold]" in cached.explain()
        meter.cap_bytes = None
        assert cached.count() == 1000
        assert meter.current == 1000 * 8
        assert "Cache[hot]" in cached.explain()
        got = cached.to_columns()["x"]
        assert got.dtype == np.int64
        assert got.tobytes() == np.arange(1000, dtype=np.int64).tobytes()

    def test_explain_shows_state(self, session):
        df = session.create_dataframe({"x": [1]}).cache()
        assert "Cache[cold]" in df.explain()
        df.count()
        assert "Cache[hot]" in df.explain()

    def test_cache_is_per_plan_instance(self, session):
        base = session.create_dataframe({"x": np.arange(4)})
        a = base.cache()
        b = base.cache()
        a.count()
        # b has its own (cold) cache node.
        assert "Cache[cold]" in b.explain()
