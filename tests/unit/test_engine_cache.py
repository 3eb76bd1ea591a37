"""DataFrame.cache(): persist-and-replay semantics."""

import numpy as np
import pytest

from repro.engine import Session, col
from repro.utils.memory import MemoryMeter


@pytest.fixture
def session():
    return Session(default_parallelism=3)


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

    def test_narrow_ops_beneath_cache_same_bits_as_uncached(self, session):
        """The stage compiler stops at a Cache node, so the narrow
        operators beneath it run un-fused, one stage each — with the
        same bits as the fused uncached plan, cold and replayed."""
        def pipeline():
            return (
                session.create_dataframe(
                    {"x": np.arange(40, dtype=np.int64),
                     "f": np.linspace(-1.0, 1.0, 40)}
                )
                .filter(col("x") % 3 != 0)
                .with_column("y", col("f") * col("x") + 0.5)
                .select("y", "x")
                .drop("x")
            )

        expected = pipeline().to_columns()
        cached = pipeline().cache()
        for _ in range(2):
            got = cached.to_columns()
            assert list(got) == list(expected)
            for name in got:
                assert got[name].dtype == expected[name].dtype
                np.testing.assert_array_equal(got[name], expected[name])

    def test_downstream_ops_work(self, session):
        df = session.create_dataframe({"x": np.arange(10)}).cache()
        assert df.filter(col("x") > 7).count() == 2

    def test_cached_memory_stays_resident(self, session):
        meter = MemoryMeter()
        metered = Session(default_parallelism=2, meter=meter)
        df = metered.create_dataframe(
            {"x": np.arange(1000, dtype=np.float64)}
        ).cache()
        df.count()
        # Cached partitions remain allocated after the action.
        assert meter.current >= 1000 * 8

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
