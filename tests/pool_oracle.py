"""Reference retention for the array pool: the flat cap of 32 arrays
per ``(shape, dtype)`` bucket ``ArrayPool.release`` applied before
buckets were bounded by each key's demand, held across every step.
The runtime no longer uses it; ``tests/unit/test_pool_demand.py`` swaps
it in as the process pool and holds the demand-bounded pool to its
values, hits and misses — and to at most its bytes.
"""

from __future__ import annotations

import numpy as np

from repro.tensor.pool import ArrayPool, _counter_triple


class OracleArrayPool(ArrayPool):
    """``ArrayPool`` that keeps up to ``max_per_key`` arrays of every
    key it is handed, acquired or not; acquire is the pool's own."""

    max_per_key = 32

    def end_step(self) -> None:
        """A step's end trims nothing: the flat cap is the only bound."""

    def release(self, arr) -> bool:
        if (
            not isinstance(arr, np.ndarray)
            or arr.base is not None
            or not arr.flags.owndata
            or not arr.flags.c_contiguous
            or arr.nbytes == 0
        ):
            self.rejects += 1
            self.reject_alias += 1
            _counter_triple()[2].inc()
            return False
        if self.bytes + arr.nbytes > self.max_bytes:
            self.rejects += 1
            self.reject_bytes += 1
            _counter_triple()[2].inc()
            return False
        key = self._key(arr.shape, arr.dtype)
        bucket = self._buckets.setdefault(key, [])
        if len(bucket) >= self.max_per_key:
            self.rejects += 1
            self.reject_per_key += 1
            _counter_triple()[2].inc()
            return False
        bucket.append(arr)
        if len(bucket) > self._high_water.get(key, 0):
            self._high_water[key] = len(bucket)
        self.bytes += arr.nbytes
        return True
