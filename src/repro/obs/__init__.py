"""repro.obs — zero-dependency runtime observability.

Three pieces, one switch:

- :class:`Tracer` / :class:`Span` (``repro.obs.tracer``) — nested,
  timed regions with attached counters: the codebase's one timing
  substrate.
- :class:`MetricsRegistry` (``repro.obs.metrics``) — process-wide
  counters / gauges / histograms that the engine executor, spatial
  join, DFtoTorch converter, and Trainer all record into.
- :func:`op_span` — the tensor / optimizer kernels' timing: each
  call of a named kernel adds its wall seconds and one call to the
  registry counters ``tensor.op_s.<name>`` / ``tensor.op_calls.<name>``.

Instrumentation is **on by default but cheap**: recording happens per
partition / batch / epoch / kernel call (never per row or element) and
every record call checks one module flag first.  ``set_enabled(False)``
(or the ``disabled()`` context manager) turns the whole layer into
no-ops.  Instrumentation only *reads* — sizes, counts, clocks — so
observed runs return bit-identical results to unobserved runs (pinned
by ``tests/property/test_property_obs.py``).

>>> from repro import obs
>>> with obs.tracer.span("load") as span:
...     span.add("rows", 128)
>>> obs.registry.counter("my.counter").inc()
>>> obs.registry.snapshot()["counters"]["my.counter"]
1
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext

from repro.obs.metrics import MetricsRegistry
from repro.obs.plan_stats import PlanStats
from repro.obs.tracer import Tracer

_ENABLED = True

#: Process-wide defaults used by all built-in instrumentation.
registry = MetricsRegistry()
tracer = Tracer()


_NULL_OP_SPAN = nullcontext()
_op_counters: dict = {}  # name -> (seconds counter, calls counter)


class _OpSpan:
    __slots__ = ("_counters", "_start")

    def __init__(self, counters):
        self._counters = counters

    def __enter__(self):
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        seconds, calls = self._counters
        seconds.inc(time.perf_counter() - self._start)
        calls.inc()
        return False


def op_span(name: str):
    """Time one kernel call: ``with op_span("ops_conv.conv2d"): ...``
    adds its wall seconds to ``tensor.op_s.<name>`` and one to
    ``tensor.op_calls.<name>``.  Disabled, it is one flag read and a
    shared no-op context manager."""
    if not _ENABLED:
        return _NULL_OP_SPAN
    counters = _op_counters.get(name)
    if counters is None:
        counters = _op_counters[name] = (
            registry.counter(f"tensor.op_s.{name}"),
            registry.counter(f"tensor.op_calls.{name}"),
        )
    return _OpSpan(counters)


def op_totals() -> dict:
    """``{name: (seconds, calls)}`` of every op so far, read without
    the histogram summaries of ``registry.snapshot()``."""
    return {name: (s.value, c.value) for name, (s, c) in _op_counters.items()}


def enabled() -> bool:
    """Is the observability layer recording?"""
    return _ENABLED


def set_enabled(flag: bool) -> None:
    """Flip the single switch guarding all built-in instrumentation
    (registry recording, engine plan stats, tracer spans, op counters)."""
    global _ENABLED
    _ENABLED = bool(flag)
    tracer.enabled = _ENABLED


@contextmanager
def disabled():
    """Temporarily turn all instrumentation off."""
    previous = _ENABLED
    set_enabled(False)
    try:
        yield
    finally:
        set_enabled(previous)


def reset() -> None:
    """Zero the default registry and drop retained traces."""
    registry.reset()
    tracer.reset()


__all__ = [
    "PlanStats",
    "op_span",
    "op_totals",
    "registry",
    "tracer",
    "enabled",
    "set_enabled",
    "disabled",
    "reset",
]
