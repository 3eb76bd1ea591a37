"""Metrics export: snapshot the registry (and optionally traces) as
plain dicts / JSON, and spans + profiler events as a Chrome trace.

Schema (``schema_version`` 3)::

    {
      "schema_version": 3,
      "metrics": {
        "counters":   {"<name>": <number>, ...},
        "gauges":     {"<name>": <number>, ...},
        "histograms": {"<name>": {"count": int, "nan_count": int,
                                   "sum": float, "min": float,
                                   "max": float, "mean": float,
                                   "p50": float, "p90": float,
                                   "p99": float}, ...}
      },
      "traces": [<span dict>, ...]          # only when include_traces
    }

Histogram fields describe the non-NaN observations (``nan_count``
counts the NaN ones); with no non-NaN observation, ``min`` through
``p99`` are ``null``.

Per-operator engine metrics live under ``engine.op.<Operator>.*``;
:func:`operator_breakdown` regroups them into one dict per operator,
which is what ``benchmarks/run_quick.py`` embeds in
``BENCH_engine.json``.
"""

from __future__ import annotations

import json
import os
import tempfile
import time

SCHEMA_VERSION = 3


def atomic_write_json(path: str, payload, indent: int = 2, sort_keys: bool = True) -> None:
    """Serialize ``payload`` to ``path`` atomically: write a temp file
    in the same directory, then ``os.replace`` — an interrupted run can
    leave a stray temp file but never a truncated JSON at ``path``."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=".tmp-" + os.path.basename(path) + "-"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(payload, handle, indent=indent, sort_keys=sort_keys)
            handle.write("\n")
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def snapshot(registry=None, tracer=None, include_traces: bool = False) -> dict:
    """One JSON-serializable dict of everything recorded so far."""
    from repro import obs

    registry = registry if registry is not None else obs.registry
    out = {"schema_version": SCHEMA_VERSION, "metrics": registry.snapshot()}
    if include_traces:
        tracer = tracer if tracer is not None else obs.tracer
        out["traces"] = [span.to_dict() for span in tracer.roots]
    return out


def dump_json(path: str, registry=None, tracer=None, include_traces: bool = False) -> dict:
    """Write :func:`snapshot` to ``path`` atomically; returns the
    snapshot."""
    snap = snapshot(registry, tracer, include_traces=include_traces)
    atomic_write_json(path, snap)
    return snap


def operator_breakdown(registry=None) -> dict:
    """Regroup ``engine.op.<Op>.<field>`` metrics per operator::

        {"Join": {"rows_out": ..., "partitions": ..., "seconds": ...,
                  "peak_partition_bytes": ...}, ...}
    """
    from repro import obs

    registry = registry if registry is not None else obs.registry
    snap = registry.snapshot()
    merged = dict(snap["counters"])
    merged.update(snap["gauges"])
    out: dict = {}
    for name, value in merged.items():
        if not name.startswith("engine.op."):
            continue
        _, _, rest = name.partition("engine.op.")
        op, _, field = rest.partition(".")
        if not field:
            continue
        out.setdefault(op, {})[field] = value
    return {op: dict(sorted(fields.items())) for op, fields in sorted(out.items())}


#: Virtual thread ids in the Chrome trace: profiler events on one
#: lane, spans from the first-seen (driver) thread on another, and
#: each further real thread on its own lane — chrome://tracing /
#: Perfetto draw them as stacked flame graphs of the same run.
PROFILER_TID = 0
TRACER_TID = 1


def _trace_tid(span, tids: dict, events: list, pid: int) -> int:
    """Map a span's real thread id onto a stable virtual lane,
    emitting a ``thread_name`` metadata event the first time a lane
    appears."""
    tid = tids.get(span.thread_id)
    if tid is None:
        tid = TRACER_TID + len(tids)
        tids[span.thread_id] = tid
        label = "tracer (spans)" if tid == TRACER_TID else (
            f"tracer ({span.thread_name})"
        )
        events.append(
            {"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
             "args": {"name": label}}
        )
    return tid


def _span_to_trace_events(
    span, pid: int, events: list, tids: dict, *, now_s: float | None = None
) -> None:
    open_span = now_s is not None
    event = {
        "name": span.name,
        "cat": "tracer",
        "ph": "X",
        "ts": span.start_s * 1e6,
        "dur": ((now_s - span.start_s) if open_span else span.elapsed_s) * 1e6,
        "pid": pid,
        "tid": _trace_tid(span, tids, events, pid),
    }
    args = {"span_id": span.span_id}
    if span.parent is not None:
        args["parent_id"] = span.parent.span_id
    if open_span:
        args["open"] = True
    if span.counters:
        args.update(span.counters)
    if span.attrs:
        args.update(span.attrs)
    event["args"] = args
    events.append(event)
    # Children of an open span are already-finished subtrees; open
    # descendants are not in .children (they attach only on exit) and
    # are exported separately via Tracer.open_spans().
    for child in list(span.children):
        _span_to_trace_events(child, pid, events, tids)


def to_chrome_trace(
    path: str | None = None, *, tracer=None, profiler=None,
    include_open: bool = True,
) -> dict:
    """Render tracer spans and profiler events as Chrome Trace Event
    Format JSON (open in ``chrome://tracing`` or Perfetto).

    Every timed entry is a complete event (``"ph": "X"``) carrying
    ``name``/``ph``/``ts``/``dur``/``pid``/``tid``; timestamps are
    microseconds on the ``perf_counter`` timebase.  ``tracer`` defaults
    to the process-wide :data:`repro.obs.tracer`; pass a
    :class:`~repro.obs.profiler.Profiler` to interleave its module/op
    events.  Spans from different threads land on distinct ``tid``
    lanes named after the thread, and every span event carries
    ``span_id``/``parent_id`` args so parentage survives across lanes.
    Spans still open at export time are included (duration extended to
    now, ``"open": true`` in args) unless ``include_open=False``.  When
    ``path`` is given the JSON is also written there atomically.
    """
    from repro import obs

    tracer = tracer if tracer is not None else obs.tracer
    pid = os.getpid()
    events: list[dict] = [
        {"name": "process_name", "ph": "M", "pid": pid, "tid": PROFILER_TID,
         "args": {"name": "repro"}},
        {"name": "thread_name", "ph": "M", "pid": pid, "tid": PROFILER_TID,
         "args": {"name": "profiler (modules + kernels)"}},
    ]
    if profiler is not None:
        for event in profiler.events:
            events.append(
                {
                    "name": event.name,
                    "cat": event.kind,
                    "ph": "X",
                    "ts": event.ts * 1e6,
                    "dur": event.dur * 1e6,
                    "pid": pid,
                    "tid": PROFILER_TID,
                    "args": {
                        "op_type": event.op_type,
                        "step": event.step,
                        "flops": event.flops,
                        "param_bytes": event.param_bytes,
                        "activation_bytes": event.activation_bytes,
                    },
                }
            )
    tids: dict[int, int] = {}
    for span in list(tracer.roots):
        _span_to_trace_events(span, pid, events, tids)
    if include_open:
        now_s = time.perf_counter()
        for span in tracer.open_spans():
            _span_to_trace_events(span, pid, events, tids, now_s=now_s)
    trace = {"traceEvents": events, "displayTimeUnit": "ms"}
    if path is not None:
        atomic_write_json(path, trace, sort_keys=False)
    return trace
