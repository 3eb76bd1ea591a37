"""Integration: the Figure 8 systems agree on results and differ in
cost the way the paper claims, at a tiny test scale."""

import numpy as np
import pytest

from repro.experiments.fig8 import (
    make_records,
    run_baseline_prep,
    run_engine_prep,
)


@pytest.fixture(scope="module")
def records():
    return make_records(8_000, seed=1)


class TestFig8Systems:
    def test_same_tensor(self, records):
        engine = run_engine_prep(records)
        baseline = run_baseline_prep(records)
        np.testing.assert_allclose(
            engine["tensor"][..., 0], baseline["tensor"]
        )

    def test_engine_uses_less_memory(self, records):
        engine = run_engine_prep(records)
        baseline = run_baseline_prep(records)
        assert engine["peak_bytes"] < baseline["peak_bytes"]

    def test_baseline_oom_under_cap(self, records):
        result = run_baseline_prep(records, cap_bytes=100_000)
        assert result["oom"]
        assert result["tensor"] is None

    def test_engine_partition_size_independence(self, records):
        a = run_engine_prep(records, rows_per_partition=1_000)
        b = run_engine_prep(records, rows_per_partition=8_000)
        np.testing.assert_allclose(a["tensor"], b["tensor"])
        # Finer partitions -> smaller peak.
        assert a["peak_bytes"] < b["peak_bytes"]

    def test_an_oom_baseline_runs_once_untimed(self, monkeypatch):
        import repro.experiments.fig8 as fig8

        calls = []
        baseline = fig8.run_baseline_prep
        monkeypatch.setattr(fig8, "run_baseline_prep",
                            lambda *a, **k: calls.append(1) or baseline(*a, **k))
        result = fig8.run_figure8(sizes=(2_000,), baseline_cap_bytes=100_000)
        engine, oom = result["systems"]
        assert oom["oom"] and oom["seconds"] is None and len(calls) == 1
        assert engine["seconds"] == min(result["timing"]["2000"]["seconds"]["repro-engine"])
        assert list(result["timing"]["2000"]["seconds"]) == ["repro-engine"]
        assert "-" in fig8.format_figure8(result["systems"]).splitlines()[-1]
