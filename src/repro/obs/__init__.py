"""repro.obs — zero-dependency runtime observability.

Three pieces, one switch:

- :class:`Tracer` / :class:`Span` (``repro.obs.tracer``) — nested,
  timed regions with attached counters: the codebase's one timing
  substrate.
- :class:`MetricsRegistry` (``repro.obs.metrics``) — process-wide
  counters / gauges / histograms that the engine executor, spatial
  join, DFtoTorch converter, and Trainer all record into.
- :class:`Profiler` (``repro.obs.profiler``) — torch.profiler-style
  module/op attribution of the training stack: per-module-path wall
  time, analytic FLOPs, parameter/activation bytes, with a
  wait/warmup/active schedule (``Trainer.fit(profiler=...)``).

Instrumentation is **on by default but cheap**: recording happens per
partition / batch / epoch (never per row) and every record call checks
one module flag first.  ``set_enabled(False)`` (or the ``disabled()``
context manager) turns the whole layer into no-ops.  Instrumentation
only *reads* — sizes, counts, clocks — so observed runs return
bit-identical results to unobserved runs (pinned by
``tests/property/test_property_obs.py``).

>>> from repro import obs
>>> with obs.tracer.span("load") as span:
...     span.add("rows", 128)
>>> obs.registry.counter("my.counter").inc()
>>> obs.registry.snapshot()["counters"]["my.counter"]
1
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.obs import profiler
from repro.obs.metrics import MetricsRegistry
from repro.obs.plan_stats import PlanStats
from repro.obs.profiler import Profiler, schedule
from repro.obs.tracer import Tracer

_ENABLED = True

#: Process-wide defaults used by all built-in instrumentation.
registry = MetricsRegistry()
tracer = Tracer()


def enabled() -> bool:
    """Is the observability layer recording?"""
    return _ENABLED


def set_enabled(flag: bool) -> None:
    """Flip the single switch guarding all built-in instrumentation
    (registry recording, engine plan stats, tracer spans)."""
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
    "Profiler",
    "schedule",
    "profiler",
    "registry",
    "tracer",
    "enabled",
    "set_enabled",
    "disabled",
    "reset",
]
