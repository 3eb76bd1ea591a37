"""Reference forms of the group-by state.

``SortedGroupState`` is ``ArrayGroupState`` held in its sorted form
from the first merge on: it overrides only the form rule, so every
merge runs the ``np.unique`` / ``searchsorted`` / insert path the
code-addressed form replaces.  The property tests hold the
code-addressed form to it, bit for bit.

``CountingGroupState`` and ``SortingGroupState`` are ``ArrayGroupState``
with every code-addressed merge forced to one way of finding its
touched codes — the counting pass over every slot, or the sort of the
batch's own codes — whatever the batch and slot sizes: they override
only the way rule.

``OracleGroupState`` is that sorted form growing the way
``ArrayGroupState._insert`` did on every merge that brought new groups
before the state kept its arrays in reserved buffers: the whole-array
``np.insert`` + ``np.concatenate`` copy.  The engine no longer calls
it; the insertion tests hold the buffered insert to it.
"""

from __future__ import annotations

import numpy as np

from repro.engine.aggregates import ArrayGroupState

# What a group no partition has reached yet holds, per aggregate kind.
EMPTY = {"min": np.inf, "max": -np.inf}


class SortedGroupState(ArrayGroupState):
    """``ArrayGroupState`` that never holds its groups code-addressed."""

    def _addressable(self, packing, highest, dtype) -> bool:
        return False


class CountingGroupState(ArrayGroupState):
    """``ArrayGroupState`` whose code-addressed merges always count."""

    def _sorts(self, rows, slots) -> bool:
        return False


class SortingGroupState(ArrayGroupState):
    """``ArrayGroupState`` whose code-addressed merges always sort."""

    def _sorts(self, rows, slots) -> bool:
        return True


class OracleGroupState(SortedGroupState):
    """The sorted form whose inserts rebuild every array exactly
    ``num_groups`` long; every other step is the engine's own."""

    def _insert(self, at, keys, codes) -> None:
        head = at[0]

        def grown(arr, values):
            tail = np.insert(arr[head:], at - head, values, axis=0)
            return np.concatenate([arr[:head], tail])

        self._keys = grown(self._keys, keys)
        self._codes = grown(self._codes, codes)
        self._counts = grown(self._counts, 0)
        for i, (spec, value) in enumerate(zip(self.specs, self._values)):
            if value is not None:
                self._values[i] = grown(value, EMPTY.get(spec.kind, 0.0))
