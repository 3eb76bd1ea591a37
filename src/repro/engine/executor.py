"""Plan execution: streams partitions through the operator tree.

Every operator has exactly one implementation here.

Narrow operators (project / filter / with_column / drop) run node by
node, each expression through ``Expr.evaluate``; a filter computes its
selection once and gathers every column with it.  Together with
map_partitions / limit they are fully pipelined: one input
partition is pulled, transformed, yielded, and released before the next
is pulled, so the working set stays O(partition).

Wide operators hold only their *state*: the per-group accumulator
arrays for aggregation, and the cached partitions for cache — the one
materializing operator, as Spark's ``persist``.  A cache keeps what it
holds in memory, on the session's meter.

Group-by is vectorized end to end: it keeps per-group accumulator
*arrays* (:class:`~repro.engine.aggregates.ArrayGroupState`), packs
each key row into one order-preserving int64 code, and merges each
partition's partial aggregates into slots addressed by that code while
the codes are few, by ``searchsorted`` + scatter updates otherwise;
non-numeric key columns are dictionary-coded to integers first.

A :class:`~repro.utils.memory.MemoryMeter` passed via ``meter``
observes exactly these allocations, which is how the Figure 8 bench
measures the engine's peak working set (and how an artificial memory
cap can make it fail, for symmetry with the baseline's OOM).

Every operator runs on the calling thread.
"""

from __future__ import annotations

import time
import weakref

import numpy as np

from repro.engine import plan as P
from repro.engine.aggregates import ArrayGroupState
from repro.engine.optimizer import static_columns
from repro.engine.partition import Partition


class _ExecContext:
    """Per-execution state threaded through the operator tree: the
    memory meter and the PlanStats observer."""

    __slots__ = ("meter", "stats")

    def __init__(self, meter, stats):
        self.meter = meter
        self.stats = stats

    def iterate(self, node: P.PlanNode):
        if self.stats is None:
            return _iter_node(node, self)
        return self.stats.observe(node, _iter_node(node, self))


def iter_partitions(node: P.PlanNode, meter=None, stats=None):
    """Yield the partitions produced by a plan node.

    ``stats`` (a :class:`repro.obs.PlanStats`) meters every operator
    in the tree: rows-out, partitions, cumulative wall time, and peak
    partition bytes per node.  With ``stats=None`` (the default for
    direct calls) execution is entirely unwrapped — the no-op fast
    path.  Metering only observes pulled partitions; it never touches
    their contents, so traced results are bit-identical to untraced
    ones.
    """
    return _ExecContext(meter, stats).iterate(node)


def _iter_node(node: P.PlanNode, ctx: _ExecContext):
    if isinstance(node, P.Source):
        yield from _run_source(node, ctx)
    elif type(node) in _NARROW:
        yield from _run_narrow(node, ctx)
    elif isinstance(node, P.Limit):
        yield from _run_limit(node, ctx)
    elif isinstance(node, P.MapPartitions):
        for part in ctx.iterate(node.child):
            yield node.fn(part)
    elif isinstance(node, P.GroupByAgg):
        yield from _run_group_by(node, ctx)
    elif isinstance(node, P.Cache):
        yield from _run_cache(node, ctx)
    else:
        raise TypeError(f"unknown plan node {type(node).__name__}")


def _filter(node: P.Filter, part: Partition) -> Partition:
    mask = node.predicate.evaluate(part)
    if mask.dtype != np.bool_:
        raise TypeError(
            f"filter predicate {node.predicate.name!r} evaluates to "
            f"{mask.dtype}, not bool"
        )
    if mask.all():
        return part  # nothing to drop: no copies
    # One selection vector, applied with ``take``: boolean fancy
    # indexing rescans the mask per column, while flatnonzero scans it
    # once and ``take`` is a straight gather.
    idx = np.flatnonzero(mask)
    return Partition._from_arrays(
        {name: arr.take(idx, axis=0) for name, arr in part.columns.items()},
        len(idx),
    )


def _project(node: P.Project, part: Partition) -> Partition:
    return Partition._from_arrays(
        {name: expr.evaluate(part) for name, expr in node.exprs},
        part.num_rows,
    )


def _with_columns(node, part: Partition) -> Partition:
    """Items apply in order, each seeing the ones before it; a name
    that exists already is replaced in its position."""
    cols = dict(part.columns)
    for name, expr in node.items:
        cols[name] = expr.evaluate(Partition._from_arrays(cols, part.num_rows))
    return Partition._from_arrays(cols, part.num_rows)


def _drop(node: P.Drop, part: Partition) -> Partition:
    dropped = set(node.names)
    return Partition._from_arrays(
        {n: a for n, a in part.columns.items() if n not in dropped},
        part.num_rows,
    )


#: Narrow operators: one partition in, one partition out.
_NARROW = {
    P.Filter: _filter,
    P.Project: _project,
    P.WithColumn: _with_columns,
    P.WithColumns: _with_columns,
    P.Drop: _drop,
}


def _run_narrow(node: P.PlanNode, ctx: _ExecContext):
    apply = _NARROW[type(node)]
    stats = ctx.stats
    for part in ctx.iterate(node.child):
        started = time.perf_counter()
        out = apply(node, part)
        if stats is not None:
            # Pure compute time (excluding child pulls), so
            # explain(analyze=True) can report per-operator rows/sec.
            stats.add_work(node, time.perf_counter() - started)
        yield out


def _release(meter, nbytes: int) -> None:
    if meter is not None:
        meter.release(nbytes)


def _fill_cache(node: P.Cache, ctx: _ExecContext):
    """The cold pass: hand each partition on as it arrives and keep it.
    The node turns hot only when its child is exhausted, so a consumer
    that stops early (or a meter cap that refuses a partition) leaves
    it cold and holding nothing.  What a hot node holds goes back on
    the meter when the node is collected."""
    meter = ctx.meter
    entries = []
    resident = metered = 0
    try:
        for part in ctx.iterate(node.child):
            # A producer counts the partition it yielded until it is
            # resumed; the cache takes the previous one over here, so
            # no partition is on the meter twice.
            if meter is not None:
                meter.allocate(resident - metered)
            metered = resident
            resident += part.nbytes
            entries.append(part)
            yield part
        if meter is not None:
            meter.allocate(resident - metered)
        metered = resident
        if node.materialized is None:
            node.materialized = entries
    finally:
        if node.materialized is entries:
            weakref.finalize(node, _release, meter, metered)
        else:
            _release(meter, metered)


def _run_cache(node: P.Cache, ctx: _ExecContext):
    if node.materialized is None:
        yield from _fill_cache(node, ctx)
    else:
        yield from node.materialized


def _run_source(node: P.Source, ctx: _ExecContext):
    meter = ctx.meter
    for factory in node.partition_factories:
        part = factory()
        nbytes = part.nbytes
        if meter is not None:
            meter.allocate(nbytes)
        try:
            yield part
        finally:
            if meter is not None:
                meter.release(nbytes)


def _run_limit(node: P.Limit, ctx: _ExecContext):
    remaining = node.n
    if remaining <= 0:
        return
    for part in ctx.iterate(node.child):
        if part.num_rows >= remaining:
            # The limit is met: return without resuming the child.
            yield part.take(remaining)
            return
        remaining -= part.num_rows
        yield part


# ----------------------------------------------------------------------
# Group-by: array-level partial merges
# ----------------------------------------------------------------------
# The per-group state (ArrayGroupState) lives in
# repro.engine.aggregates: the streaming DeltaState persists the same
# class across micro-batches, which is what makes incremental results
# bit-identical to this batch path by construction.
def _run_group_by(node: P.GroupByAgg, ctx: _ExecContext):
    meter = ctx.meter
    keys = node.keys
    state = ArrayGroupState(node.aggs)
    # Bytes this operator has on the meter: the state, then the output.
    # Given back however the query ends, a refused allocation included.
    held = 0
    try:
        for part in ctx.iterate(node.child):
            state.update([part.columns[k] for k in keys], part)
            if meter is not None:
                nbytes = state.nbytes
                meter.allocate(nbytes - held)
                held = nbytes

        out = state.to_partition(keys)
        if meter is not None:
            meter.release(held)
            held = 0
            meter.allocate(out.nbytes)
            held = out.nbytes
        yield out
    finally:
        _release(meter, held)


def plan_column_names(node: P.PlanNode) -> list[str]:
    """Statically derive output column names of a plan."""
    return static_columns(node, strict=False)
