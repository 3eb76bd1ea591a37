"""Reference growth for the group-by state: the whole-array
``np.insert`` + ``np.concatenate`` copy ``ArrayGroupState._insert``
made on every merge that brought new groups, before the state kept its
arrays in reserved buffers.  The engine no longer calls it; the
insertion property tests hold the buffered insert to it, bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.engine.aggregates import ArrayGroupState

# What a group no partition has reached yet holds, per aggregate kind.
EMPTY = {"min": np.inf, "max": -np.inf}


class OracleGroupState(ArrayGroupState):
    """``ArrayGroupState`` whose inserts rebuild every array exactly
    ``num_groups`` long; every other step is the engine's own."""

    def _insert(self, at, keys, codes) -> None:
        head = at[0]

        def grown(arr, values):
            tail = np.insert(arr[head:], at - head, values, axis=0)
            return np.concatenate([arr[:head], tail])

        self.keys = grown(self.keys, keys)
        self._codes = grown(self._codes, codes)
        self.counts = grown(self.counts, 0)
        for i, (spec, value) in enumerate(zip(self.specs, self.values)):
            if value is not None:
                self.values[i] = grown(value, EMPTY.get(spec.kind, 0.0))
