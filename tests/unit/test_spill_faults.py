"""Failure injection for the spill subsystem: disk-full mid-write,
corrupted or truncated spill files on restore.

Failures must surface as a clear :class:`SpillError` — never a raw
numpy/pickle traceback from deep inside an operator — partial files
must be cleaned up, and the session must stay usable afterwards.
"""

import errno
import os

import numpy as np
import pytest

from repro.engine import Session, SpillError
from repro.engine.partition import Partition
from repro.engine.spill import SpillManager


def _part(n=10):
    strings = np.empty(n, dtype=object)
    strings[:] = [f"s{i}" for i in range(n)]
    return Partition(
        {
            "i": np.arange(n, dtype=np.int64),
            "f": np.linspace(0.0, 1.0, n),
            "s": strings,
        }
    )


class TestWriteFailures:
    def test_enospc_mid_write_raises_spill_error(self, tmp_path, monkeypatch):
        manager = SpillManager(budget=100, root=str(tmp_path))

        def exploding_save(*args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(np, "save", exploding_save)
        with pytest.raises(SpillError, match="No space left"):
            manager.spill(_part())

    def test_failed_write_cleans_partial_files(self, tmp_path, monkeypatch):
        manager = SpillManager(budget=100, root=str(tmp_path))
        real_save = np.save
        calls = {"n": 0}

        def fail_second_column(handle, arr, **kwargs):
            calls["n"] += 1
            if calls["n"] >= 2:
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_save(handle, arr, **kwargs)

        monkeypatch.setattr(np, "save", fail_second_column)
        with pytest.raises(SpillError):
            manager.spill(_part())
        # The first column's file was written, then cleaned up with
        # the rest of the partial partition directory.
        assert calls["n"] >= 2
        leftovers = [
            name
            for name in os.listdir(manager.directory)
            if os.listdir(os.path.join(manager.directory, name))
        ]
        assert leftovers == []

    def test_manager_usable_after_failed_spill(self, tmp_path, monkeypatch):
        manager = SpillManager(budget=100, root=str(tmp_path))
        monkeypatch.setattr(
            np, "save", lambda *a, **k: (_ for _ in ()).throw(OSError("disk"))
        )
        with pytest.raises(SpillError):
            manager.spill(_part())
        monkeypatch.undo()
        handle = manager.spill(_part())
        restored = manager.restore(handle)
        np.testing.assert_array_equal(
            restored.columns["i"], np.arange(10, dtype=np.int64)
        )

    def test_session_still_runs_in_memory_after_spill_failure(
        self, tmp_path, monkeypatch
    ):
        session = Session(memory_budget=64, spill_dir=str(tmp_path))
        df = session.create_dataframe(
            {"x": np.arange(1000, dtype=np.int64)}, num_partitions=4
        )
        monkeypatch.setattr(
            np, "save", lambda *a, **k: (_ for _ in ()).throw(OSError("disk"))
        )
        with pytest.raises(SpillError):
            df.cache().collect()
        monkeypatch.undo()
        # Narrow (non-materializing) work never needed the spill dir.
        assert df.count() == 1000
        # And materializing work recovers once the disk does.
        out = df.cache().to_columns()
        np.testing.assert_array_equal(out["x"], np.arange(1000))
        session.close()


class TestRestoreFailures:
    def _spilled(self, tmp_path):
        manager = SpillManager(budget=100, root=str(tmp_path))
        handle = manager.spill(_part())
        return manager, handle

    def test_truncated_file_raises_spill_error(self, tmp_path):
        manager, handle = self._spilled(tmp_path)
        path = os.path.join(handle.path, "c0.npy")
        with open(path, "r+b") as fh:
            fh.truncate(8)
        with pytest.raises(SpillError, match="restore|rows|corrupted"):
            manager.restore(handle)

    def test_garbage_file_raises_spill_error(self, tmp_path):
        manager, handle = self._spilled(tmp_path)
        with open(os.path.join(handle.path, "c1.npy"), "wb") as fh:
            fh.write(b"this is not a numpy file")
        with pytest.raises(SpillError):
            manager.restore(handle)

    def test_missing_file_raises_spill_error(self, tmp_path):
        manager, handle = self._spilled(tmp_path)
        os.remove(os.path.join(handle.path, "c0.npy"))
        with pytest.raises(SpillError, match="restore"):
            manager.restore(handle)

    def test_wrong_dtype_on_disk_raises_spill_error(self, tmp_path):
        manager, handle = self._spilled(tmp_path)
        with open(os.path.join(handle.path, "c0.npy"), "wb") as fh:
            np.save(fh, np.arange(10, dtype=np.float32))
        with pytest.raises(SpillError, match="expected int64"):
            manager.restore(handle)

    def test_wrong_row_count_raises_spill_error(self, tmp_path):
        manager, handle = self._spilled(tmp_path)
        with open(os.path.join(handle.path, "c0.npy"), "wb") as fh:
            np.save(fh, np.arange(3, dtype=np.int64))
        with pytest.raises(SpillError, match="truncated"):
            manager.restore(handle)

    def test_corrupted_pickle_column_raises_spill_error(self, tmp_path):
        manager, handle = self._spilled(tmp_path)
        with open(os.path.join(handle.path, "c2.pkl"), "wb") as fh:
            fh.write(b"\x80\x04junk")
        with pytest.raises(SpillError):
            manager.restore(handle)

    def test_query_surfaces_spill_error_not_numpy_traceback(self, tmp_path):
        session = Session(memory_budget=256, spill_dir=str(tmp_path))
        df = session.create_dataframe(
            {"x": np.arange(2000, dtype=np.int64)}, num_partitions=8
        ).cache()
        df.count()  # materialize: overflow partitions spilled
        spill_dir = session.spill_manager.directory
        assert spill_dir is not None
        for pdir in os.listdir(spill_dir):
            for fname in os.listdir(os.path.join(spill_dir, pdir)):
                with open(os.path.join(spill_dir, pdir, fname), "wb") as fh:
                    fh.write(b"junk")
        with pytest.raises(SpillError):
            df.collect()
        session.close()
