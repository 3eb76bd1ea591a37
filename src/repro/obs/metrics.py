"""Process-wide metrics: counters, gauges, histograms.

The registry is the single sink every instrumented layer reports into
— the engine executor, the spatial join, the DFtoTorch converter, and
the Trainer all record through the same :class:`MetricsRegistry`, so
one :func:`repro.obs.export.snapshot` captures a whole run.

Instruments are cheap enough to leave on: recording is a few attribute
updates, guarded by the module-wide enabled flag
(:func:`repro.obs.enabled`), and instrumented code records per
partition / batch / epoch — never per row.

Instruments are thread-safe: every mutation takes a per-instrument
lock, so user threads and the telemetry flusher can record
concurrently without losing increments.  Reads
(``.value``, ``summary()``) stay lock-free — a snapshot taken mid-run
may be one update stale, never corrupt.
"""

from __future__ import annotations

import math
import threading
import time

import numpy as np

_obs = None  # lazily bound repro.obs module (import cycle at load time)


def _enabled() -> bool:
    global _obs
    if _obs is None:
        from repro import obs

        _obs = obs
    return _obs.enabled()


class Counter:
    """Monotonically increasing value (int or float increments)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount=1) -> None:
        if not _enabled():
            return
        with self._lock:
            self.value += amount

    def reset(self) -> None:
        with self._lock:
            self.value = 0


class Gauge:
    """Last-written value, with a max-combine helper for peaks."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def set(self, value) -> None:
        if not _enabled():
            return
        with self._lock:
            self.value = value

    def set_max(self, value) -> None:
        if not _enabled():
            return
        with self._lock:
            if value > self.value:
                self.value = value

    def reset(self) -> None:
        with self._lock:
            self.value = 0


class Histogram:
    """Streaming distribution: exact count/sum/min/max plus stored
    observations for percentiles.

    The stored values are decimated 2:1 whenever they exceed
    ``max_values`` (deterministic — no sampling RNG), so memory stays
    bounded while count/sum/min/max remain exact.
    """

    __slots__ = (
        "name",
        "count",
        "total",
        "min",
        "max",
        "values",
        "max_values",
        "_lock",
    )

    def __init__(self, name: str, max_values: int = 8192):
        self.name = name
        self.max_values = max_values
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None
        self.values: list = []
        self._lock = threading.Lock()

    def observe(self, value) -> None:
        if not _enabled():
            return
        value = float(value)
        with self._lock:
            self.count += 1
            self.total += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value
            self.values.append(value)
            if len(self.values) > self.max_values:
                self.values = self.values[::2]

    def percentile(self, q: float) -> float:
        if not self.values:
            return float("nan")
        return float(np.percentile(np.asarray(self.values), q))

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    def summary(self) -> dict:
        """Deterministic field order: count, sum, min, max, mean,
        p50, p90, p99 (the JSON schema documented in docs/API.md)."""
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean if self.count else None,
            "p50": self.percentile(50) if self.count else None,
            "p90": self.percentile(90) if self.count else None,
            "p99": self.percentile(99) if self.count else None,
        }

    def reset(self) -> None:
        with self._lock:
            self.count = 0
            self.total = 0.0
            self.min = None
            self.max = None
            self.values = []


#: Bucket index for non-positive (and NaN) observations.  Sorts below
#: every real log2 bucket, so rank walks visit it first.
_NONPOS_BUCKET = -(1 << 30)


def _bucket_of(value: float) -> int:
    """Log2 bucket index: bucket ``b`` covers ``[2**b, 2**(b+1))``."""
    if value <= 0.0 or value != value:
        return _NONPOS_BUCKET
    _, exp = math.frexp(value)  # value = m * 2**exp, m in [0.5, 1)
    return exp - 1


class _WindowSlice:
    """One time slice of a windowed histogram: per-bucket
    ``[count, max]`` pairs plus exact count/sum/min/max."""

    __slots__ = ("epoch", "buckets", "count", "total", "min", "max")

    def __init__(self):
        self.reset(-1)

    def reset(self, epoch: int) -> None:
        self.epoch = epoch
        self.buckets: dict[int, list] = {}
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None


class WindowSnapshot:
    """Merged view over one or more windowed histograms.

    Holds summed per-bucket ``[count, max]`` pairs — snapshots from
    different histograms (or different processes, after JSON
    round-trip) combine with :meth:`merge`, and quantiles stay
    exact-rank at bucket granularity over the union.
    """

    __slots__ = ("buckets", "count", "total", "min", "max")

    def __init__(self):
        self.buckets: dict[int, list] = {}
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None

    def merge(self, other: "WindowSnapshot") -> "WindowSnapshot":
        """Fold ``other`` into ``self`` (returns ``self``)."""
        for bucket, (count, bmax) in other.buckets.items():
            pair = self.buckets.get(bucket)
            if pair is None:
                self.buckets[bucket] = [count, bmax]
            else:
                pair[0] += count
                if bmax > pair[1]:
                    pair[1] = bmax
        self.count += other.count
        self.total += other.total
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max
        return self

    def percentile(self, q: float) -> float:
        """Exact nearest-rank quantile at bucket granularity.

        The rank ``r = max(1, ceil(q/100 * n))`` lands in exactly one
        log2 bucket (bucket counts are exact — nothing is ever dropped
        from the window), and the returned value is that bucket's
        largest observation.  It therefore satisfies
        ``true_value <= result <= 2 * true_value``, and is *equal* to
        the true order statistic whenever the bucket holds a single
        distinct value.
        """
        if not self.count:
            return float("nan")
        rank = max(1, math.ceil(q / 100.0 * self.count))
        cumulative = 0
        for bucket in sorted(self.buckets):
            pair = self.buckets[bucket]
            cumulative += pair[0]
            if cumulative >= rank:
                if bucket == _NONPOS_BUCKET:
                    return float(self.min if self.min is not None else 0.0)
                return float(pair[1])
        return float(self.max)  # unreachable unless counts drift

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")


class WindowedHistogram:
    """Mergeable log-bucketed histogram over a sliding time window.

    Observations land in fixed log2 buckets (``[2**b, 2**(b+1))``) in
    a ring of ``slices`` time slices, each covering
    ``window_s / slices`` seconds; :meth:`window` merges the slices
    still inside the window, so quantiles reflect the last
    ``window_s`` seconds only.  Unlike the decimating
    :class:`Histogram`, bucket counts are exact — no observation is
    ever dropped while inside the window — which makes p50/p95/p99
    exact-rank correct at bucket granularity (see
    :meth:`WindowSnapshot.percentile`).  Lifetime ``count``/``total``
    are also kept exact for rate computation.

    Use this for latency-class metrics where tail quantiles matter;
    keep the reservoir :class:`Histogram` for value-distribution
    metrics (losses, norms) where full-history percentiles are wanted.
    """

    __slots__ = (
        "name", "window_s", "slices", "slice_s", "count", "total",
        "_ring", "_clock", "_lock",
    )

    def __init__(
        self,
        name: str,
        window_s: float = 60.0,
        slices: int = 6,
        clock=time.monotonic,
    ):
        if slices < 1:
            raise ValueError("slices must be >= 1")
        self.name = name
        self.window_s = float(window_s)
        self.slices = int(slices)
        self.slice_s = self.window_s / self.slices
        self.count = 0  # lifetime, exact
        self.total = 0.0  # lifetime, exact
        self._ring = [_WindowSlice() for _ in range(self.slices)]
        self._clock = clock
        self._lock = threading.Lock()

    def observe(self, value) -> None:
        if not _enabled():
            return
        value = float(value)
        bucket = _bucket_of(value)
        epoch = int(self._clock() / self.slice_s)
        with self._lock:
            self.count += 1
            self.total += value
            sl = self._ring[epoch % self.slices]
            if sl.epoch != epoch:
                sl.reset(epoch)
            pair = sl.buckets.get(bucket)
            if pair is None:
                sl.buckets[bucket] = [1, value]
            else:
                pair[0] += 1
                if value > pair[1]:
                    pair[1] = value
            sl.count += 1
            sl.total += value
            if sl.min is None or value < sl.min:
                sl.min = value
            if sl.max is None or value > sl.max:
                sl.max = value

    def window(self) -> WindowSnapshot:
        """Merged snapshot of the slices still inside the window."""
        snap = WindowSnapshot()
        epoch = int(self._clock() / self.slice_s)
        oldest = epoch - self.slices + 1
        with self._lock:
            for sl in self._ring:
                if not sl.count or sl.epoch < oldest:
                    continue
                for bucket, (count, bmax) in sl.buckets.items():
                    pair = snap.buckets.get(bucket)
                    if pair is None:
                        snap.buckets[bucket] = [count, bmax]
                    else:
                        pair[0] += count
                        if bmax > pair[1]:
                            pair[1] = bmax
                snap.count += sl.count
                snap.total += sl.total
                if sl.min is not None and (snap.min is None or sl.min < snap.min):
                    snap.min = sl.min
                if sl.max is not None and (snap.max is None or sl.max > snap.max):
                    snap.max = sl.max
        return snap

    def percentile(self, q: float) -> float:
        return self.window().percentile(q)

    def summary(self) -> dict:
        """Deterministic field order: lifetime count/sum, then the
        current window's count, min, max, mean, p50, p95, p99."""
        snap = self.window()
        empty = not snap.count
        return {
            "count": self.count,
            "sum": self.total,
            "window_s": self.window_s,
            "window_count": snap.count,
            "min": snap.min,
            "max": snap.max,
            "mean": None if empty else snap.mean,
            "p50": None if empty else snap.percentile(50),
            "p95": None if empty else snap.percentile(95),
            "p99": None if empty else snap.percentile(99),
        }

    def reset(self) -> None:
        with self._lock:
            self.count = 0
            self.total = 0.0
            for sl in self._ring:
                sl.reset(-1)


class MetricsRegistry:
    """Get-or-create home for named instruments.

    ``snapshot()`` renders everything to a plain dict (sorted names,
    so serialized output is stable); ``reset()`` zeroes every
    instrument but keeps it registered; ``clear()`` drops them.

    ``generation`` is a seqlock-style counter bumped twice by
    ``reset()``/``clear()`` (odd while zeroing is in progress).  A
    concurrent flusher (:class:`repro.obs.runtime.TelemetryRuntime`)
    reads it before and after snapshotting: an odd or changed value
    means the snapshot straddled a reset and must be discarded, so a
    flush never emits partially zeroed or duplicated lines.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._windowed: dict[str, WindowedHistogram] = {}
        self.generation = 0
        self._gen_lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        inst = self._counters.get(name)
        if inst is None:
            with self._lock:
                inst = self._counters.setdefault(name, Counter(name))
        return inst

    def gauge(self, name: str) -> Gauge:
        inst = self._gauges.get(name)
        if inst is None:
            with self._lock:
                inst = self._gauges.setdefault(name, Gauge(name))
        return inst

    def histogram(self, name: str, max_values: int = 8192) -> Histogram:
        inst = self._histograms.get(name)
        if inst is None:
            with self._lock:
                inst = self._histograms.setdefault(
                    name, Histogram(name, max_values=max_values)
                )
        return inst

    def windowed_histogram(
        self, name: str, window_s: float = 60.0, slices: int = 6
    ) -> WindowedHistogram:
        inst = self._windowed.get(name)
        if inst is None:
            with self._lock:
                inst = self._windowed.setdefault(
                    name, WindowedHistogram(name, window_s=window_s, slices=slices)
                )
        return inst

    def snapshot(self) -> dict:
        out = {
            "counters": {
                name: self._counters[name].value
                for name in sorted(self._counters)
            },
            "gauges": {
                name: self._gauges[name].value
                for name in sorted(self._gauges)
            },
            "histograms": {
                name: self._histograms[name].summary()
                for name in sorted(self._histograms)
            },
        }
        if self._windowed:  # section only appears once one is registered
            out["windowed"] = {
                name: self._windowed[name].summary()
                for name in sorted(self._windowed)
            }
        return out

    def _begin_generation(self) -> None:
        with self._gen_lock:
            self.generation += 1  # odd: mutation in progress

    def _end_generation(self) -> None:
        with self._gen_lock:
            self.generation += 1  # even: stable again

    def reset(self) -> None:
        self._begin_generation()
        try:
            for group in (
                self._counters, self._gauges, self._histograms, self._windowed
            ):
                for inst in group.values():
                    inst.reset()
        finally:
            self._end_generation()

    def clear(self) -> None:
        self._begin_generation()
        try:
            with self._lock:
                self._counters.clear()
                self._gauges.clear()
                self._histograms.clear()
                self._windowed.clear()
        finally:
            self._end_generation()
