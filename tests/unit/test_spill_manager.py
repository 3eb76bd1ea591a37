"""SpillManager lifecycle: dtype round-trips, accounting, temp-dir
cleanup, thread safety, and the Session-level budget plumbing."""

import gc
import os
import threading

import numpy as np
import pytest

from repro.engine import Session
from repro.engine.partition import Partition
from repro.engine.spill import SpillManager


def _object_col(values):
    arr = np.empty(len(values), dtype=object)
    arr[:] = values
    return arr


class TestRoundTrip:
    @pytest.mark.parametrize(
        "array",
        [
            np.arange(7, dtype=np.int64),
            np.arange(7, dtype=np.int32),
            np.array([1.5, np.nan, -np.inf, 0.0, np.inf, -0.0, 2.0]),
            np.array([True, False, True, True, False, False, True]),
            np.arange("2024-01", "2024-08", dtype="datetime64[M]"),
            _object_col(["a", "", "b" * 100, None, 3, ("t", 1), {"k": 2}]),
        ],
        ids=["int64", "int32", "float-nan-inf", "bool", "datetime", "object"],
    )
    def test_column_round_trips_bitwise(self, tmp_path, array):
        manager = SpillManager(budget=1, root=str(tmp_path))
        part = Partition({"c": array})
        restored = manager.restore(manager.spill(part))
        assert restored.columns["c"].dtype == array.dtype
        np.testing.assert_array_equal(restored.columns["c"], array)
        manager.close()

    def test_empty_partition_round_trips(self, tmp_path):
        manager = SpillManager(budget=1, root=str(tmp_path))
        part = Partition(
            {"a": np.empty(0, dtype=np.int64), "s": np.empty(0, dtype=object)}
        )
        restored = manager.restore(manager.spill(part))
        assert restored.num_rows == 0
        assert restored.columns["a"].dtype == np.int64
        assert restored.columns["s"].dtype == object
        manager.close()

    def test_restore_is_repeatable_until_release(self, tmp_path):
        manager = SpillManager(budget=1, root=str(tmp_path))
        handle = manager.spill(Partition({"x": np.arange(5)}))
        first = manager.restore(handle)
        second = manager.restore(handle)
        np.testing.assert_array_equal(first.columns["x"], second.columns["x"])
        manager.release(handle)
        assert not os.path.exists(handle.path)
        manager.close()


class TestAccounting:
    def test_counters_track_bytes_and_files(self, tmp_path):
        manager = SpillManager(budget=1, root=str(tmp_path))
        part = Partition(
            {"i": np.arange(100, dtype=np.int64), "s": _object_col(["x"] * 100)}
        )
        handle = manager.spill(part)
        stats = manager.stats()
        assert stats["partitions_spilled"] == 1
        assert stats["files_written"] == 2
        # npy bytes on disk at least cover the raw int64 payload.
        assert stats["bytes_written"] >= 800
        on_disk = sum(
            os.path.getsize(os.path.join(handle.path, f))
            for f in os.listdir(handle.path)
        )
        assert stats["bytes_written"] == on_disk
        manager.restore(handle)
        stats = manager.stats()
        assert stats["bytes_restored"] == handle.nbytes
        assert stats["restore_seconds"] > 0
        manager.close()

    def test_registry_counters_recorded(self, tmp_path):
        from repro import obs

        manager = SpillManager(budget=1, root=str(tmp_path))
        before = obs.registry.counter("engine.spill.bytes_written").value
        handle = manager.spill(Partition({"x": np.arange(64, dtype=np.int64)}))
        manager.restore(handle)
        assert obs.registry.counter("engine.spill.bytes_written").value > before
        assert obs.registry.counter("engine.spill.files").value > 0
        manager.close()


class TestLifecycle:
    def test_directory_created_lazily(self, tmp_path):
        manager = SpillManager(budget=1, root=str(tmp_path))
        assert manager.directory is None
        manager.spill(Partition({"x": np.arange(3)}))
        assert manager.directory is not None
        assert os.path.isdir(manager.directory)
        manager.close()

    def test_close_removes_directory_and_is_idempotent(self, tmp_path):
        manager = SpillManager(budget=1, root=str(tmp_path))
        manager.spill(Partition({"x": np.arange(3)}))
        spill_dir = manager.directory
        manager.close()
        assert not os.path.exists(spill_dir)
        manager.close()  # idempotent

    def test_finalizer_removes_directory_without_close(self, tmp_path):
        manager = SpillManager(budget=1, root=str(tmp_path))
        manager.spill(Partition({"x": np.arange(3)}))
        spill_dir = manager.directory
        del manager
        gc.collect()
        assert not os.path.exists(spill_dir)

    def test_session_close_removes_spill_dir(self, tmp_path):
        session = Session(memory_budget=128, spill_dir=str(tmp_path))
        df = session.create_dataframe(
            {"x": np.arange(2000, dtype=np.int64)}, num_partitions=8
        )
        df.cache().collect()
        spill_dir = session.spill_manager.directory
        assert spill_dir is not None and os.path.isdir(spill_dir)
        session.close()
        assert not os.path.exists(spill_dir)

    def test_session_context_manager_closes(self, tmp_path):
        with Session(memory_budget=128, spill_dir=str(tmp_path)) as session:
            session.create_dataframe(
                {"x": np.arange(2000, dtype=np.int64)}, num_partitions=8
            ).cache().collect()
            spill_dir = session.spill_manager.directory
        assert not os.path.exists(spill_dir)

    def test_no_budget_means_no_manager(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_MEMORY_BUDGET", raising=False)
        assert Session().spill_manager is None

    def test_env_var_supplies_default_budget(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_MEMORY_BUDGET", "2048")
        session = Session()
        assert session.memory_budget == 2048
        assert session.spill_manager is not None
        session.close()

    def test_explicit_budget_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_MEMORY_BUDGET", "2048")
        assert Session(memory_budget=4096).memory_budget == 4096


class TestThreadSafety:
    def test_concurrent_restores(self, tmp_path):
        manager = SpillManager(budget=1, root=str(tmp_path))
        handles = [
            manager.spill(
                Partition({"x": np.full(50, i, dtype=np.int64)})
            )
            for i in range(8)
        ]
        failures = []

        def worker(i):
            for _ in range(20):
                part = manager.restore(handles[i])
                if not np.array_equal(
                    part.columns["x"], np.full(50, i, dtype=np.int64)
                ):
                    failures.append(i)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert failures == []
        assert manager.stats()["partitions_spilled"] == 8
        manager.close()

    def test_parallel_session_spill_correct(self, tmp_path):
        """Two user threads each fill (spill) and replay their own
        cache through one budgeted session — one SpillManager — at the
        same time."""
        data = {"x": np.random.default_rng(3).permutation(4000)}
        outs = {}
        with Session(memory_budget=2048, spill_dir=str(tmp_path)) as session:
            source = session.create_dataframe(data, num_partitions=8)
            assert session.spill_manager is not None  # created before sharing
            start = threading.Barrier(2)

            def fill_and_replay(slot):
                cached = source.cache()
                start.wait(timeout=60)
                fill = cached.to_columns()["x"]
                outs[slot] = (fill, cached.to_columns()["x"])

            threads = [
                threading.Thread(target=fill_and_replay, args=(k,))
                for k in range(2)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            # Every 4 000-byte partition is over the budget: both fills
            # spill all eight.
            assert session.spill_manager.stats()["partitions_spilled"] == 16
        assert sorted(outs) == [0, 1]
        for fill, replay in outs.values():
            np.testing.assert_array_equal(fill, data["x"])
            np.testing.assert_array_equal(replay, data["x"])


class TestObservability:
    def test_explain_analyze_annotates_spilled_bytes(self, tmp_path):
        with Session(memory_budget=256, spill_dir=str(tmp_path)) as session:
            df = session.create_dataframe(
                {"x": np.arange(2000, dtype=np.int64)}, num_partitions=8
            ).cache()
            rendered = df.explain(analyze=True)
        assert "spilled=" in rendered

    def test_unbounded_explain_has_no_spill_annotation(self):
        session = Session()
        df = session.create_dataframe(
            {"x": np.arange(100, dtype=np.int64)}, num_partitions=4
        ).cache()
        assert "spilled=" not in df.explain(analyze=True)


class TestHeterogeneousDtypes:
    def test_cache_mixed_dtype_partitions_match_unbounded(self, tmp_path):
        """Union of an int32 column with a float64 one: each spilled
        partition restores in its own dtype, so the replay's concat
        promotes exactly like the in-memory one."""

        def build(session):
            left = session.create_dataframe(
                {"x": np.arange(400, dtype=np.int32)}, num_partitions=4
            )
            right = session.create_dataframe(
                {"x": np.linspace(-200.0, 200.0, 400)}, num_partitions=4
            )
            cached = left.union(right).cache()
            cached.count()
            return cached.to_columns()

        reference = build(Session())
        with Session(memory_budget=512, spill_dir=str(tmp_path)) as spilling:
            spilled = build(spilling)
        assert spilled["x"].dtype == reference["x"].dtype
        np.testing.assert_array_equal(spilled["x"], reference["x"])
