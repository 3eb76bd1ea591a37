"""Spill-to-disk: out-of-core execution for the materializing operator.

The engine's narrow operators stream with an O(partition) working set,
but ``cache``, the one materializing operator, holds its whole input.
A :class:`SpillManager` (owned by ``Session(memory_budget=...)``) lets
it trade that residency for disk: partitions are serialized to a
compact columnar on-disk format and restored on demand, so datasets
larger than the budget still execute — the Spark/Petastorm behaviour
the DESIGN substitution promises (PAPER.md §2, Fig 8).

**On-disk format.**  One directory per spilled partition, one file per
column: ``c<i>.npy`` (``np.save`` with ``allow_pickle=False``) for
numeric/bool/datetime columns, ``c<i>.pkl`` (pickle of the object
ndarray) for object columns — strings, geometries.  Column names,
dtypes and the row count live on the in-memory :class:`SpillHandle`,
so a restore validates shape and dtype against what was written and a
truncated or corrupted file surfaces as :class:`SpillError`, never as
a numpy traceback deep inside an operator.

**Lifecycle.**  The spill directory is created lazily under the system
temp dir (or ``Session(spill_dir=...)``), removed by
``Session.close()`` / context-manager exit, and — via
``weakref.finalize`` — at interpreter exit even when nobody closed the
session.  A failed write cleans up its partial files and leaves the
manager usable; restores are thread-safe (user threads sharing a
session may restore concurrently).

**Accounting.**  All activity is counted both on the manager
(``bytes_written`` / ``bytes_restored`` / ``files_written`` /
``spill_seconds`` / ``restore_seconds``) and, when :mod:`repro.obs`
is enabled, in the process-wide registry under ``engine.spill.*``.
The executor additionally credits spilled bytes to the operator that
spilled them, which ``explain(analyze=True)`` renders as
``spilled=<bytes>``.
"""

from __future__ import annotations

import os
import pickle
import shutil
import tempfile
import threading
import time
import weakref

import numpy as np

from repro.engine.partition import Partition


def _tracer():
    from repro import obs

    return obs.tracer


class SpillError(RuntimeError):
    """A spill write or restore failed (disk full, corrupted or
    truncated spill file, unexpected on-disk contents)."""


class SpillHandle:
    """In-memory descriptor of one spilled partition.

    Everything needed to validate a restore travels on the handle —
    only column payloads live on disk.
    """

    __slots__ = ("path", "num_rows", "nbytes", "columns")

    def __init__(self, path: str, num_rows: int, nbytes: int, columns: list):
        self.path = path
        self.num_rows = num_rows
        self.nbytes = nbytes  # in-memory estimate of the partition
        self.columns = columns  # list of (name, kind, dtype)

    def __repr__(self):
        return f"SpillHandle[{self.path}, rows={self.num_rows}]"


class SpillManager:
    """Serializes partitions to a temp directory and restores them.

    One manager per :class:`~repro.engine.session.Session`; the
    ``budget`` (bytes) is advisory state the executor's ``cache``
    consults to decide *when* to spill — the manager itself
    only moves partitions to and from disk.
    """

    def __init__(self, budget: int | None = None, root: str | None = None):
        if budget is not None and int(budget) < 0:
            raise ValueError("memory budget must be >= 0")
        self.budget = None if budget is None else int(budget)
        self._root_hint = root
        self._dir: str | None = None
        self._finalizer = None
        self._lock = threading.Lock()
        self._seq = 0
        self.partitions_spilled = 0
        self.files_written = 0
        self.bytes_written = 0
        self.bytes_restored = 0
        self.spill_seconds = 0.0
        self.restore_seconds = 0.0

    # ------------------------------------------------------------------
    # Directory lifecycle
    # ------------------------------------------------------------------
    @property
    def directory(self) -> str | None:
        """The spill directory, or None if nothing has spilled yet."""
        return self._dir

    def _ensure_dir(self) -> str:
        with self._lock:
            if self._dir is None:
                try:
                    self._dir = tempfile.mkdtemp(
                        prefix="repro-spill-", dir=self._root_hint
                    )
                except OSError as exc:
                    raise SpillError(
                        f"cannot create spill directory: {exc}"
                    ) from exc
                # Interpreter-exit safety net: the temp dir dies with
                # the manager even when close() is never called.
                self._finalizer = weakref.finalize(
                    self, shutil.rmtree, self._dir, ignore_errors=True
                )
            return self._dir

    def close(self) -> None:
        """Delete the spill directory and all spilled partitions."""
        with self._lock:
            finalizer, self._finalizer = self._finalizer, None
            self._dir = None
        if finalizer is not None:
            finalizer()

    # ------------------------------------------------------------------
    # Spill / restore / release
    # ------------------------------------------------------------------
    def spill(self, part: Partition) -> SpillHandle:
        """Write one partition to disk, returning its handle.

        On any failure the partial spill directory is removed and a
        :class:`SpillError` is raised; the manager stays usable.
        """
        started = time.perf_counter()
        # Spill I/O is part of the query's trace: the span nests under
        # whatever is open on the calling thread (normally the
        # engine.query span on the driver).
        with _tracer().span("engine.spill.write") as span:
            root = self._ensure_dir()
            with self._lock:
                seq = self._seq
                self._seq += 1
            pdir = os.path.join(root, f"p{seq:06d}")
            meta: list = []
            written = 0
            files = 0
            try:
                os.mkdir(pdir)
                for i, (name, arr) in enumerate(part.columns.items()):
                    if arr.dtype == object:
                        fpath = os.path.join(pdir, f"c{i}.pkl")
                        with open(fpath, "wb") as handle:
                            pickle.dump(
                                arr, handle, protocol=pickle.HIGHEST_PROTOCOL
                            )
                        meta.append((name, "pkl", arr.dtype))
                    else:
                        fpath = os.path.join(pdir, f"c{i}.npy")
                        with open(fpath, "wb") as handle:
                            np.save(handle, arr, allow_pickle=False)
                        meta.append((name, "npy", arr.dtype))
                    written += os.path.getsize(fpath)
                    files += 1
            except Exception as exc:
                shutil.rmtree(pdir, ignore_errors=True)
                raise SpillError(
                    f"failed to spill partition to {pdir}: {exc}"
                ) from exc
            span.add("bytes", written)
            span.add("rows", part.num_rows)
        elapsed = time.perf_counter() - started
        with self._lock:
            self.partitions_spilled += 1
            self.files_written += files
            self.bytes_written += written
            self.spill_seconds += elapsed
        self._record("bytes_written", written)
        self._record("files", files)
        self._record("partitions", 1)
        return SpillHandle(pdir, part.num_rows, part.nbytes, meta)

    def restore(self, handle: SpillHandle) -> Partition:
        """Read one spilled partition back, validating row counts and
        dtypes against the handle.  Thread-safe; the files stay on
        disk (``cache`` replays handles repeatedly) until
        :meth:`release`."""
        started = time.perf_counter()
        columns: dict = {}
        with _tracer().span("engine.spill.read") as span:
            for i, (name, kind, dtype) in enumerate(handle.columns):
                fpath = os.path.join(handle.path, f"c{i}.{kind}")
                try:
                    if kind == "pkl":
                        with open(fpath, "rb") as fh:
                            arr = pickle.load(fh)
                    else:
                        arr = np.load(fpath, allow_pickle=False)
                except SpillError:
                    raise
                except Exception as exc:
                    raise SpillError(
                        f"failed to restore spilled column {name!r} "
                        f"from {fpath}: {exc}"
                    ) from exc
                if not isinstance(arr, np.ndarray) or arr.dtype != dtype:
                    raise SpillError(
                        f"spill file {fpath} holds "
                        f"{getattr(arr, 'dtype', type(arr))}, "
                        f"expected {dtype} (corrupted spill?)"
                    )
                if len(arr) != handle.num_rows:
                    raise SpillError(
                        f"spill file {fpath} holds {len(arr)} rows, "
                        f"expected {handle.num_rows} (truncated spill?)"
                    )
                columns[name] = arr
            span.add("bytes", handle.nbytes)
            span.add("rows", handle.num_rows)
        elapsed = time.perf_counter() - started
        with self._lock:
            self.bytes_restored += handle.nbytes
            self.restore_seconds += elapsed
        self._record("bytes_restored", handle.nbytes)
        self._record("restore_seconds", elapsed)
        return Partition._from_arrays(columns, handle.num_rows)

    def release(self, handle: SpillHandle) -> None:
        """Delete one spilled partition's files."""
        shutil.rmtree(handle.path, ignore_errors=True)

    @staticmethod
    def _record(suffix: str, amount) -> None:
        from repro import obs

        obs.registry.counter(f"engine.spill.{suffix}").inc(amount)

    def stats(self) -> dict:
        """Counters snapshot (tests, benchmarks)."""
        with self._lock:
            return {
                "partitions_spilled": self.partitions_spilled,
                "files_written": self.files_written,
                "bytes_written": self.bytes_written,
                "bytes_restored": self.bytes_restored,
                "spill_seconds": self.spill_seconds,
                "restore_seconds": self.restore_seconds,
            }
