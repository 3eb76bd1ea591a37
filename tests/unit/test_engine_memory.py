"""Memory accounting: the meter and the engine's streaming property."""

import numpy as np
import pytest

from repro.engine import Session, agg, col
from repro.utils.memory import (
    MemoryBudgetExceeded,
    MemoryMeter,
    approx_nbytes,
)


class TestApproxNbytes:
    def test_ndarray(self):
        assert approx_nbytes(np.zeros(10, dtype=np.float64)) == 80

    def test_scalars_and_strings(self):
        assert approx_nbytes(None) == 0
        assert approx_nbytes(3) > 0
        assert approx_nbytes(3.5) > 0
        assert approx_nbytes("abc") > 3

    def test_containers_recursive(self):
        nested = {"a": [np.zeros(4), np.zeros(4)]}
        assert approx_nbytes(nested) > 64


class TestMemoryMeter:
    def test_peak_tracking(self):
        meter = MemoryMeter()
        meter.allocate(100)
        meter.allocate(50)
        meter.release(120)
        meter.allocate(10)
        assert meter.peak == 150
        assert meter.current == 40

    def test_release_clamps_at_zero(self):
        meter = MemoryMeter()
        meter.allocate(10)
        meter.release(100)
        assert meter.current == 0

    def test_cap_raises(self):
        meter = MemoryMeter(cap_bytes=100)
        meter.allocate(90)
        with pytest.raises(MemoryBudgetExceeded, match="110 bytes"):
            meter.allocate(20)
        # The refused allocation is not counted.
        assert meter.current == 90
        assert meter.peak == 90


class TestEngineStreaming:
    def test_narrow_chain_peak_is_partition_sized(self):
        """A filter/project chain over N partitions should hold ~one
        partition, not the whole dataset."""
        meter = MemoryMeter()
        session = Session(default_parallelism=10, meter=meter)
        df = session.create_dataframe({"x": np.arange(100_000, dtype=np.float64)})
        df.filter(col("x") >= 0).select("x").count()
        total_bytes = 100_000 * 8
        assert meter.peak < total_bytes / 4

    def test_single_partition_peak_is_dataset_sized(self):
        meter = MemoryMeter()
        session = Session(default_parallelism=1, meter=meter)
        df = session.create_dataframe({"x": np.arange(100_000, dtype=np.float64)})
        df.count()
        assert meter.peak >= 100_000 * 8

    def test_groupby_peak_bounded_by_groups(self):
        meter = MemoryMeter()
        session = Session(default_parallelism=10, meter=meter)
        n = 50_000
        df = session.create_dataframe(
            {
                "k": np.arange(n, dtype=np.int64) % 16,
                "v": np.ones(n, dtype=np.float64),
            }
        )
        rows = df.group_by("k").agg(agg.sum_("v", "s")).collect()
        assert len(rows) == 16
        # State is 16 groups + one partition, far below the dataset.
        assert meter.peak < n * 16 / 4

    def test_meter_releases_after_run(self):
        meter = MemoryMeter()
        session = Session(default_parallelism=4, meter=meter)
        df = session.create_dataframe({"x": np.arange(1000)})
        df.count()
        assert meter.current == 0

    def test_refused_group_by_gives_its_state_back(self):
        """A cap that refuses the group-by's state mid-query leaves the
        meter where the query found it, and an uncapped retry gives the
        uncapped result bit for bit."""
        data = {"k": np.arange(8000, dtype=np.int64)}
        expected = (
            Session(default_parallelism=8)
            .create_dataframe(data).group_by("k").agg(agg.count())
            .to_columns()
        )
        meter = MemoryMeter(cap_bytes=40_000)
        session = Session(default_parallelism=8, meter=meter)
        grouped = session.create_dataframe(data).group_by("k").agg(agg.count())
        with pytest.raises(MemoryBudgetExceeded):
            grouped.count()
        assert meter.current == 0
        meter.cap_bytes = None
        got = grouped.to_columns()
        assert meter.current == 0
        assert list(got) == list(expected)
        for name in expected:
            assert got[name].dtype == expected[name].dtype
            assert got[name].tobytes() == expected[name].tobytes()
