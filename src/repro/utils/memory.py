"""Logical memory accounting.

The Figure 8 experiment compares *peak working-set* of the partitioned
engine against the eager baseline.  Instead of sampling the OS RSS
(noisy, allocator-dependent, and both systems share one process here),
both systems report the byte size of the data structures they actually
hold alive, tracked with :class:`MemoryMeter`.  This measures exactly
the quantity the paper argues about: how much of the dataset a system
must materialize at once.
"""

from __future__ import annotations

import numpy as np


def approx_nbytes(obj) -> int:
    """Approximate deep byte size of common containers and arrays."""
    if obj is None:
        return 0
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (bytes, bytearray)):
        return len(obj)
    if isinstance(obj, str):
        return len(obj.encode("utf-8", errors="ignore")) + 49
    if isinstance(obj, (int, np.integer)):
        return 28
    if isinstance(obj, (float, np.floating)):
        return 24
    if isinstance(obj, bool):
        return 28
    if isinstance(obj, dict):
        return 64 + sum(
            approx_nbytes(k) + approx_nbytes(v) for k, v in obj.items()
        )
    if isinstance(obj, (list, tuple, set, frozenset)):
        return 56 + 8 * len(obj) + sum(approx_nbytes(item) for item in obj)
    nbytes = getattr(obj, "nbytes", None)
    if nbytes is not None:
        return int(nbytes)
    return 48


class MemoryBudgetExceeded(MemoryError):
    """Raised when a MemoryMeter with a cap observes an allocation over it."""


class MemoryMeter:
    """Tracks live logical allocations and the peak total.

    Systems call :meth:`allocate` when they materialize a block and
    :meth:`release` when they drop it.  ``cap_bytes`` simulates a
    machine memory limit: exceeding it raises
    :class:`MemoryBudgetExceeded`, reproducing the out-of-memory
    failure the paper reports for GeoPandas at 250M records.
    """

    def __init__(self, cap_bytes: int | None = None):
        self.cap_bytes = cap_bytes
        self.current = 0
        self.peak = 0

    def allocate(self, nbytes: int) -> None:
        """Count ``nbytes`` more.  An allocation over the cap is refused
        before it is counted: ``current`` and ``peak`` stay as they were."""
        current = self.current + int(nbytes)
        if self.cap_bytes is not None and current > self.cap_bytes:
            raise MemoryBudgetExceeded(
                f"working set {current} bytes exceeds cap "
                f"{self.cap_bytes} bytes"
            )
        self.current = current
        if current > self.peak:
            self.peak = current

    def release(self, nbytes: int) -> None:
        self.current = max(0, self.current - int(nbytes))
