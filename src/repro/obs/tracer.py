"""Span-based tracing: nested timed regions with attached counters.

A :class:`Span` is one timed region; entering a span inside another
records parent/child nesting, so a trace reads like a call tree
(epoch -> batch -> forward/backward, or action -> operator).  Spans
always measure wall time when the tracer is enabled — they are the
library's one timing substrate — and a disabled tracer hands out a
shared no-op span with zero overhead beyond one attribute check.

Trace context crosses threads.  Every span carries a process-unique
``span_id`` plus its parent's id, and the tracer keeps one nesting
stack *per thread*, so user threads and DataLoader fetches each nest
correctly on their own thread.  To attach a span opened on
another thread to a parent on this one, capture the parent (the span
``with tracer.span(...)`` yields) before handing the work over and
pass it as ``tracer.span(name, parent=captured)`` — the child lands
in the parent's subtree even though it ran on another thread, so the
span tree stays connected end-to-end.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from contextlib import contextmanager

#: Process-wide span id allocator.  ``itertools.count`` is a C-level
#: iterator, so ``next()`` is atomic under the GIL — no lock needed.
_SPAN_IDS = itertools.count(1)

#: Sentinel distinguishing "no parent requested" (inherit the calling
#: thread's current span) from an explicit ``parent=None`` (force a
#: new root).
_INHERIT = object()


class Span:
    """One timed region.  ``elapsed_s`` is valid after the region
    exits; ``counters``/``attrs`` hold whatever the instrumented code
    attached while the span was open."""

    __slots__ = (
        "name", "parent", "children", "start_s", "elapsed_s", "counters",
        "attrs", "span_id", "thread_id", "thread_name",
    )

    def __init__(self, name: str, parent: "Span | None" = None):
        self.name = name
        self.parent = parent
        self.children: list[Span] = []
        self.start_s = 0.0  # perf_counter timebase, set on entry
        self.elapsed_s = 0.0
        self.counters: dict = {}
        self.attrs: dict = {}
        self.span_id = next(_SPAN_IDS)
        thread = threading.current_thread()
        self.thread_id = thread.ident or 0
        self.thread_name = thread.name

    def add(self, counter: str, amount=1) -> None:
        """Accumulate a named counter on this span."""
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def set(self, key: str, value) -> None:
        """Attach a key/value attribute to this span."""
        self.attrs[key] = value


class _NullSpan:
    """Shared no-op span handed out by a disabled tracer."""

    __slots__ = ()
    name = ""
    parent = None
    children: list = []
    start_s = 0.0
    elapsed_s = 0.0
    counters: dict = {}
    attrs: dict = {}
    span_id = 0
    thread_id = 0
    thread_name = ""

    def add(self, counter, amount=1):
        pass

    def set(self, key, value):
        pass


NULL_SPAN = _NullSpan()


class Tracer:
    """Creates spans and keeps one active nesting stack per thread.

    Finished root spans are retained in ``roots`` (a bounded deque —
    old traces fall off rather than growing without limit) for
    inspection and export.
    """

    def __init__(self, enabled: bool = True, max_roots: int = 1024):
        self.enabled = enabled
        self.roots: deque[Span] = deque(maxlen=max_roots)
        self._stacks: dict[int, list[Span]] = {}
        self._lock = threading.Lock()

    def _stack(self) -> list:
        tid = threading.get_ident()
        stack = self._stacks.get(tid)
        if stack is None:
            with self._lock:
                stack = self._stacks.setdefault(tid, [])
        return stack

    def start_span(self, name: str, parent=_INHERIT) -> Span:
        """Open a span without a context manager (pair with
        :meth:`end_span`).  ``parent`` defaults to the calling thread's
        current span; pass a captured :class:`Span` to parent across
        threads, or ``None`` to force a new root."""
        if not self.enabled:
            return NULL_SPAN
        stack = self._stack()
        if parent is _INHERIT:
            parent = stack[-1] if stack else None
        span = Span(name, parent=parent)
        stack.append(span)
        span.start_s = time.perf_counter()
        return span

    def end_span(self, span: Span) -> None:
        """Close a span opened by :meth:`start_span`: stamp its
        duration and attach it to its parent (or retain it as a
        root)."""
        if span is NULL_SPAN:
            return
        span.elapsed_s = time.perf_counter() - span.start_s
        stack = self._stacks.get(threading.get_ident())
        if stack:
            if stack[-1] is span:
                stack.pop()
            else:
                # Non-LIFO exit (e.g. generators holding spans open
                # across interleaved pulls): remove by identity.
                for i in range(len(stack) - 1, -1, -1):
                    if stack[i] is span:
                        del stack[i]
                        break
        if span.parent is not None:
            # list.append is atomic under the GIL, so worker threads
            # may attach children to a driver-side parent concurrently.
            span.parent.children.append(span)
        else:
            with self._lock:
                self.roots.append(span)

    @contextmanager
    def span(self, name: str, parent=_INHERIT):
        span = self.start_span(name, parent)
        try:
            yield span
        finally:
            self.end_span(span)

    def reset(self) -> None:
        """Drop retained roots and all per-thread stacks."""
        with self._lock:
            self.roots.clear()
            self._stacks.clear()
