"""Per-run physical-operator statistics (the ``explain(analyze=True)``
substrate).

A :class:`PlanStats` is attached to one execution of one plan.  The
executor wraps every operator's partition generator with
:meth:`observe`, which records rows-out, partitions, cumulative wall
time, and the largest single partition the operator emitted.  The
object is deliberately duck-typed over plan nodes (it only touches
``.children`` and ``._label()``), so it lives here with the rest of
the observability layer instead of inside the engine.

Semantics worth pinning down:

- ``elapsed_s`` is *cumulative*: the time spent pulling this
  operator's output, including everything beneath it (Spark's
  "total time" column).  Self time is derived at render time as
  cumulative minus the children's cumulative.
- ``rows_in`` is derived, not measured: the sum of the children's
  ``rows_out``.  For a leaf (Source) it is not shown.
- A node that was never pulled (e.g. below an exhausted ``Limit``)
  still renders, with zero partitions.
- ``work_s`` is *pure compute* time, reported only by operators that
  measure it themselves (the narrow operators).  ``add_work`` takes a
  lock, so threads sharing one ``PlanStats`` lose no update.
"""

from __future__ import annotations

import re
import threading
import time


class NodeStats:
    """Measured output of one physical operator in one run."""

    __slots__ = (
        "rows_out",
        "partitions",
        "elapsed_s",
        "peak_partition_bytes",
        "work_s",
    )

    def __init__(self):
        self.rows_out = 0
        self.partitions = 0
        self.elapsed_s = 0.0
        self.peak_partition_bytes = 0
        self.work_s = 0.0


class PlanStats:
    """All operators' stats for one execution of one plan tree."""

    def __init__(self):
        self._by_id: dict[int, NodeStats] = {}
        self._lock = threading.Lock()

    def node(self, plan_node) -> NodeStats:
        stats = self._by_id.get(id(plan_node))
        if stats is None:
            with self._lock:
                stats = self._by_id.setdefault(id(plan_node), NodeStats())
        return stats

    def add_work(self, plan_node, seconds: float) -> None:
        """Credit pure compute time to an operator.  Thread-safe."""
        stats = self.node(plan_node)
        with self._lock:
            stats.work_s += seconds

    def observe(self, plan_node, partitions):
        """Wrap an operator's partition generator, metering each pull."""
        stats = self.node(plan_node)
        perf_counter = time.perf_counter
        while True:
            started = perf_counter()
            try:
                part = next(partitions)
            except StopIteration:
                stats.elapsed_s += perf_counter() - started
                return
            stats.elapsed_s += perf_counter() - started
            stats.partitions += 1
            stats.rows_out += part.num_rows
            nbytes = part.nbytes
            if nbytes > stats.peak_partition_bytes:
                stats.peak_partition_bytes = nbytes
            yield part

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def render(self, plan_node, indent: int = 0) -> str:
        """The annotated tree ``explain(analyze=True)`` prints.

        Field order is fixed (rows_in, rows_out, partitions, time,
        peak_part_bytes, then work/rows_per_s when the operator
        reported compute time) so golden tests only need to mask
        times.
        """
        pad = "  " * indent
        stats = self._by_id.get(id(plan_node))
        children = getattr(plan_node, "children", ())
        if stats is None:
            line = f"{pad}{plan_node._label()}  (not executed)"
        else:
            fields = []
            if children:
                rows_in = sum(
                    self._by_id[id(c)].rows_out
                    for c in children
                    if id(c) in self._by_id
                )
                fields.append(f"rows_in={rows_in}")
            fields.append(f"rows_out={stats.rows_out}")
            fields.append(f"partitions={stats.partitions}")
            fields.append(f"time={stats.elapsed_s * 1000.0:.3f}ms")
            fields.append(f"peak_part_bytes={stats.peak_partition_bytes}")
            if stats.work_s > 0:
                fields.append(f"work={stats.work_s * 1000.0:.3f}ms")
                fields.append(
                    f"rows_per_s={stats.rows_out / stats.work_s:.0f}"
                )
            line = f"{pad}{plan_node._label()}  ({' '.join(fields)})"
        lines = [line]
        for child in children:
            lines.append(self.render(child, indent + 1))
        return "\n".join(lines)

    def to_dict(self, plan_node) -> dict:
        """Recursive JSON-serializable form of the annotated tree (the
        ``operators`` section of a query-profile artifact).  Field
        names mirror :meth:`render`; a node that was never pulled gets
        ``"executed": false``."""
        out: dict = {"operator": plan_node._label()}
        stats = self._by_id.get(id(plan_node))
        if stats is None:
            out["executed"] = False
        else:
            out["rows_out"] = stats.rows_out
            out["partitions"] = stats.partitions
            out["elapsed_s"] = stats.elapsed_s
            out["peak_partition_bytes"] = stats.peak_partition_bytes
            if stats.work_s > 0:
                out["work_s"] = stats.work_s
        children = [self.to_dict(c) for c in getattr(plan_node, "children", ())]
        if children:
            out["children"] = children
        return out

    # ------------------------------------------------------------------
    # Registry flush
    # ------------------------------------------------------------------
    _LABEL_RE = re.compile(r"^[A-Za-z_]+")

    def flush_to_registry(self, plan_node, registry=None) -> None:
        """Fold this run's per-node stats into process-wide metrics,
        aggregated per operator *type* (``engine.op.<Op>.*``)."""
        if registry is None:
            from repro import obs

            registry = obs.registry
        for node in self._walk(plan_node):
            stats = self._by_id.get(id(node))
            if stats is None:
                continue
            match = self._LABEL_RE.match(node._label())
            op = match.group(0) if match else "Unknown"
            prefix = f"engine.op.{op}"
            registry.counter(f"{prefix}.rows_out").inc(stats.rows_out)
            registry.counter(f"{prefix}.partitions").inc(stats.partitions)
            registry.counter(f"{prefix}.seconds").inc(stats.elapsed_s)
            if stats.work_s > 0:
                registry.counter(f"{prefix}.work_seconds").inc(stats.work_s)
            registry.gauge(f"{prefix}.peak_partition_bytes").set_max(
                stats.peak_partition_bytes
            )

    def _walk(self, plan_node):
        yield plan_node
        for child in getattr(plan_node, "children", ()):
            yield from self._walk(child)
