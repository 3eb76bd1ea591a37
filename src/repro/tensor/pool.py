"""A small ``(shape, dtype)``-keyed arena for backward scratch buffers.

CPU training in this engine is allocation-bound: every autograd op
allocates fresh arrays, and the large ones (conv ``dxp`` scratch,
pool masks, packed gate gradients) have exactly the same shape on
every batch.  :class:`ArrayPool` recycles those arrays across steps:

- :meth:`acquire` hands out a cached array for ``(shape, dtype)`` when
  one is available (a *hit*), else allocates (a *miss*);
- :meth:`release` returns an array to the pool — only arrays that own
  their memory outright (no views, C-contiguous) and that the pool
  does not already hold are accepted, so a pooled buffer can never
  alias live data or another pooled buffer;
- the graph-freeing path of :meth:`Tensor.backward(free_graph=True)
  <repro.tensor.tensor.Tensor.backward>` releases the gradients of
  freed intermediates here, which is what closes the reuse loop:
  batch N's gradient buffers become batch N+1's scratch.  A traced
  step (:mod:`repro.tensor.trace`) replays by calling the same ops, so
  it makes exactly an eager step's acquires and releases on this same
  pool; a tape owns no buffers.

Hits and misses are counted into the process-wide metrics registry as
``tensor.pool.hit`` / ``tensor.pool.miss`` (plus ``tensor.pool.reject``
for arrays :meth:`release` refused), so ``obs.registry.snapshot()``
and the pipeline benchmark's ``tensor.pool_hit_rate`` show whether the
pool is working.

Each ``(shape, dtype)`` bucket keeps at most that key's *demand*: the
most arrays of the key out at once during the last training step,
counted as acquires minus releases (never below 0).  A step ends with
each :meth:`Tensor.backward(free_graph=True)
<repro.tensor.tensor.Tensor.backward>`, which calls :meth:`end_step`:
every key's demand becomes what that step asked for, and a key the
step never acquired keeps nothing — another model's buffers and a
ragged last batch's are dropped one step later.  Within a step the cap
is the larger of the last step's demand and this step's so far, so a
same-shape step keeps every array the next one could take.  An array
acquired and then dropped without a release (a conv's padded input, a
weight gradient ``zero_grad`` discards) counts as out only until its
step ends.  Work that never ends a step (engine queries, evaluation)
keeps the most out at once since the last step.  ``max_bytes`` is the
one absolute bound: many distinct shapes could otherwise add keys
without limit.  Releases over either bound are dropped and garbage
collected as usual, and so is a second release of an array the pool
already holds.  Access is process-wide through :func:`default_pool`;
tests construct private instances (``tests/pool_oracle.py`` keeps the
old flat 32-per-key cap as a reference).
"""

from __future__ import annotations

import operator

import numpy as np

_counters = None  # lazy (hit, miss, reject) counter triple


def _counter_triple():
    global _counters
    if _counters is None:
        from repro import obs

        _counters = (
            obs.registry.counter("tensor.pool.hit"),
            obs.registry.counter("tensor.pool.miss"),
            obs.registry.counter("tensor.pool.reject"),
        )
    return _counters


class ArrayPool:
    """Bounded free-list of numpy arrays keyed by ``(shape, dtype)``."""

    def __init__(self, max_bytes: int = 256 * 1024 * 1024):
        if max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        self.max_bytes = max_bytes
        self.bytes = 0
        self.hits = 0
        self.misses = 0
        self.rejects = 0
        # Reject-reason breakdown: which cap (or safety rule) is
        # actually turning arrays away — the knob-tuning signal the
        # aggregate ``rejects`` count hides.
        self.reject_alias = 0
        self.reject_bytes = 0
        self.reject_per_key = 0
        self._buckets: dict[tuple, list[np.ndarray]] = {}
        # ids of the arrays the buckets hold: a second release of one is
        # found without scanning its bucket (a held array stays alive,
        # so its id cannot be reused).
        self._held: set[int] = set()
        # dtype argument -> ``np.dtype(arg).str``, the key's dtype part.
        self._dtype_codes: dict = {}
        # Arrays of each key out now (acquires - releases this step,
        # floored at 0), the most out at once this step, and the cap in
        # effect: the last step's demand, raised by this step's peak.
        self._out: dict[tuple, int] = {}
        self._peak: dict[tuple, int] = {}
        self._demand: dict[tuple, int] = {}
        # Deepest each held key's bucket has been.
        self._high_water: dict[tuple, int] = {}

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())

    def _key(self, shape, dtype) -> tuple:
        """The bucket key; raises on a shape or dtype no array can
        have, before anything is counted."""
        dims = tuple(map(operator.index, shape))
        if dims and min(dims) < 0:
            raise ValueError(f"negative dimensions are not allowed: {dims}")
        try:
            code = self._dtype_codes[dtype]
        except KeyError:
            code = self._dtype_codes[dtype] = np.dtype(dtype).str
        except TypeError:  # an unhashable spec, such as a field list
            code = np.dtype(dtype).str
        return dims, code

    def acquire(self, shape, dtype=np.float32, zero: bool = False) -> np.ndarray:
        """Return an array of ``shape``/``dtype`` — recycled when the
        pool has one, freshly allocated otherwise.  ``zero=True``
        guarantees all-zero contents either way."""
        key = self._key(shape, dtype)
        hit, miss, _ = _counter_triple()
        out = self._out.get(key, 0) + 1
        self._out[key] = out
        if out > self._peak.get(key, 0):
            self._peak[key] = out
            if out > self._demand.get(key, 0):
                self._demand[key] = out
        bucket = self._buckets.get(key)
        if bucket:
            arr = bucket.pop()
            self._held.discard(id(arr))
            self.bytes -= arr.nbytes
            self.hits += 1
            hit.inc()
            if zero:
                arr.fill(0)
            return arr
        self.misses += 1
        miss.inc()
        if zero:
            return np.zeros(key[0], dtype=dtype)
        return np.empty(key[0], dtype=dtype)

    def release(self, arr) -> bool:
        """Offer ``arr`` back to the pool.

        Returns True when the array was pooled.  Anything that could
        alias other live memory — views, non-owning wrappers,
        non-contiguous layouts, an array the pool already holds — is
        rejected, as is overflow beyond ``max_bytes`` or beyond the
        key's demand.
        """
        flags = arr.flags if isinstance(arr, np.ndarray) else None
        if (
            flags is None
            or arr.base is not None
            or not flags.owndata
            or not flags.c_contiguous
            or arr.nbytes == 0
        ):
            return self._reject("reject_alias")
        if id(arr) in self._held:
            return self._reject("reject_alias")
        key = (arr.shape, arr.dtype.str)
        bucket = self._buckets.get(key, ())
        out = self._out.get(key, 0)
        if out:
            self._out[key] = out - 1
        if self.bytes + arr.nbytes > self.max_bytes:
            return self._reject("reject_bytes")
        if len(bucket) >= self._demand.get(key, 0):
            return self._reject("reject_per_key")
        bucket = self._buckets.setdefault(key, [])
        bucket.append(arr)
        self._held.add(id(arr))
        depth = len(bucket)
        if depth > self._high_water.get(key, 0):
            self._high_water[key] = depth
        self.bytes += arr.nbytes
        return True

    def _reject(self, reason: str) -> bool:
        self.rejects += 1
        setattr(self, reason, getattr(self, reason) + 1)
        _counter_triple()[2].inc()
        return False

    def end_step(self) -> None:
        """Close a training step: each key's demand becomes the most
        arrays of it out at once during the step, and a key the step
        never acquired keeps nothing.  Buckets over their new demand
        are trimmed; the arrays dropped are garbage collected."""
        self._demand, self._peak, self._out = self._peak, {}, {}
        for key in list(self._buckets):
            bucket = self._buckets[key]
            keep = self._demand.get(key, 0)
            for arr in bucket[keep:]:
                self.bytes -= arr.nbytes
                self._held.discard(id(arr))
            del bucket[keep:]
            if not keep:
                del self._buckets[key]
                self._high_water.pop(key, None)

    def reset(self) -> None:
        """Drop every cached array and zero the local statistics."""
        self._buckets.clear()
        self._held.clear()
        self._out.clear()
        self._peak.clear()
        self._demand.clear()
        self._high_water.clear()
        self.bytes = 0
        self.hits = 0
        self.misses = 0
        self.rejects = 0
        self.reject_alias = 0
        self.reject_bytes = 0
        self.reject_per_key = 0

    def stats(self) -> dict:
        """Snapshot of pool effectiveness.

        Besides the raw counters this reports ``hit_rate`` (fraction of
        acquires served from cache), the reject-reason breakdown
        (``reject_per_key`` counts releases beyond the key's demand,
        ``reject_alias`` views and second releases of a held array),
        ``high_water`` — the deepest each held ``(shape, dtype)`` bucket
        has been — and ``demand``, each key's cap in effect, both keyed
        by ``"<shape>:<dtype>"``.  A key leaves both when a step ends
        without acquiring it.  For the process-wide pool the derived
        values are also pushed to ``tensor.pool.*`` gauges so they land
        in ``obs.registry.snapshot()`` next to the hit/miss counters.
        """
        acquires = self.hits + self.misses
        hit_rate = self.hits / acquires if acquires else 0.0
        out = {
            "arrays": len(self),
            "bytes": self.bytes,
            "hits": self.hits,
            "misses": self.misses,
            "rejects": self.rejects,
            "hit_rate": hit_rate,
            "reject_alias": self.reject_alias,
            "reject_bytes": self.reject_bytes,
            "reject_per_key": self.reject_per_key,
            "high_water": _by_key(self._high_water),
            "high_water_max": max(self._high_water.values(), default=0),
            "demand": _by_key(self._demand),
        }
        if self is _DEFAULT:
            from repro import obs

            for key in _GAUGED:
                obs.registry.gauge(f"tensor.pool.{key}").set(out[key])
        return out


#: The :meth:`ArrayPool.stats` fields the process-wide pool publishes
#: as ``tensor.pool.<field>`` gauges.
_GAUGED = (
    "hit_rate", "bytes", "arrays", "high_water_max", "reject_alias",
    "reject_bytes", "reject_per_key",
)


def _by_key(counts: dict) -> dict:
    return {
        f"{shape}:{dtype}": n for (shape, dtype), n in sorted(counts.items())
    }


_DEFAULT = ArrayPool()


def default_pool() -> ArrayPool:
    """The process-wide pool used by the autograd runtime."""
    return _DEFAULT
