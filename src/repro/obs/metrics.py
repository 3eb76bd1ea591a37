"""Process-wide metrics: counters, gauges, histograms.

The registry is the single sink every instrumented layer reports into
— the engine executor, the spatial join, the DFtoTorch converter, and
the Trainer all record through the same :class:`MetricsRegistry`, so
one ``registry.snapshot()`` captures a whole run.

Instruments are cheap enough to leave on: recording is a few attribute
updates, guarded by the module-wide enabled flag
(:func:`repro.obs.enabled`), and instrumented code records per
partition / batch / epoch — never per row.

Instruments are thread-safe: every mutation takes a per-instrument
lock, so threads can record concurrently without losing increments.
Reads (``.value``, ``summary()``) stay lock-free — a snapshot taken
mid-run may be one update stale, never corrupt.
"""

from __future__ import annotations

import threading

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

    A NaN observation (a diverged loss or gradient norm) only bumps
    ``nan_count``: every other field describes the non-NaN values, so
    one NaN cannot turn the whole summary into NaN.
    """

    __slots__ = (
        "name",
        "count",
        "nan_count",
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
        self.nan_count = 0
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
            if value != value:
                self.nan_count += 1
                return
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
        """Deterministic field order: count, nan_count, sum, min, max,
        mean, p50, p90, p99 (the JSON schema documented in docs/API.md)."""
        return {
            "count": self.count,
            "nan_count": self.nan_count,
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
            self.nan_count = 0
            self.total = 0.0
            self.min = None
            self.max = None
            self.values = []


class MetricsRegistry:
    """Get-or-create home for named instruments.

    ``snapshot()`` renders everything to a plain dict (sorted names,
    so serialized output is stable); ``reset()`` zeroes every
    instrument but keeps it registered.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

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

    def snapshot(self) -> dict:
        return {
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

    def reset(self) -> None:
        for group in (self._counters, self._gauges, self._histograms):
            for inst in group.values():
                inst.reset()
