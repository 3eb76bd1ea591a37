"""Plan execution: streams partitions through the operator tree.

Every operator has exactly one implementation here.

Narrow operators (project / filter / with_column / drop) run as
*stages* — a fused :class:`~repro.engine.plan.CompiledStage`, or a
one-step stage for a narrow node the stage compiler never saw — through
:class:`~repro.engine.compile.StageRunner`.  Together with
map_partitions / union / limit they are fully pipelined: one input
partition is pulled, transformed, yielded, and released before the next
is pulled, so the working set stays O(partition).

Wide operators hold only their *state*: the per-group accumulator
arrays for aggregation, and the input buffer for order_by and cache (the
materializing operators, as in Spark).  The materializing operators
are parameterised by the session memory budget: what exceeds it spills
to disk through the session's SpillManager (external merge sort,
cached partitions kept on disk); with no budget nothing ever exceeds it
and the same code runs entirely in memory.  Results are bit-identical
at every budget.

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

import math
import time
import weakref

import numpy as np

from repro.engine import plan as P
from repro.engine.aggregates import ArrayGroupState
from repro.engine.compile import _FUSABLE, stage_runner
from repro.engine.optimizer import static_columns
from repro.engine.partition import Partition


class _ExecContext:
    """Per-execution state threaded through the operator tree: the
    memory meter, the PlanStats observer and the session's SpillManager
    (out-of-core execution)."""

    __slots__ = ("meter", "stats", "spill")

    def __init__(self, meter, stats, spill=None):
        self.meter = meter
        self.stats = stats
        self.spill = spill

    def budget_share(self, divisor: int = 1):
        """The session memory budget divided by ``divisor`` (at least
        one byte).  Without a budget the share is infinite: no byte
        count ever exceeds it, so the materializing operators never
        spill and run their under-budget (in-memory) case."""
        if self.spill is None or self.spill.budget is None:
            return math.inf
        return max(1, self.spill.budget // divisor)

    def note_spill(self, node: P.PlanNode, nbytes: int) -> None:
        """Credit spilled bytes to the operator that wrote them, for
        the ``spilled=`` annotation in ``explain(analyze=True)``."""
        if self.stats is not None:
            self.stats.add_spill(node, nbytes)

    def iterate(self, node: P.PlanNode):
        if self.stats is None:
            return _iter_node(node, self)
        return self.stats.observe(node, _iter_node(node, self))


def iter_partitions(node: P.PlanNode, meter=None, stats=None, spill=None):
    """Yield the partitions produced by a plan node.

    ``stats`` (a :class:`repro.obs.PlanStats`) meters every operator
    in the tree: rows-out, partitions, cumulative wall time, and peak
    partition bytes per node.  With ``stats=None`` (the default for
    direct calls) execution is entirely unwrapped — the no-op fast
    path.  Metering only observes pulled partitions; it never touches
    their contents, so traced results are bit-identical to untraced
    ones.

    ``spill`` (a :class:`repro.engine.spill.SpillManager` with a
    ``budget``) bounds the materializing operators — order_by and
    cache, the two that buffer their input: they keep at most the
    budget resident and spill the rest to disk, producing results
    bit-identical to running with no budget (``spill=None``), which
    is the same code with nothing ever over budget.
    """
    return _ExecContext(meter, stats, spill).iterate(node)


#: Nodes run by a StageRunner: a fused chain, or a narrow operator the
#: stage compiler never saw (``optimize=False``, a drop-only chain),
#: which runs as a one-step stage.
_STAGES = (P.CompiledStage, *_FUSABLE)


def _iter_node(node: P.PlanNode, ctx: _ExecContext):
    if isinstance(node, P.Source):
        yield from _run_source(node, ctx)
    elif isinstance(node, P.StreamingSource):
        yield from _run_streaming_source(node, ctx)
    elif isinstance(node, _STAGES):
        yield from _run_stage(node, ctx)
    elif isinstance(node, P.Union):
        for child in node.inputs:
            yield from ctx.iterate(child)
    elif isinstance(node, P.Limit):
        yield from _run_limit(node, ctx)
    elif isinstance(node, P.MapPartitions):
        for part in ctx.iterate(node.child):
            yield node.fn(part)
    elif isinstance(node, P.GroupByAgg):
        yield from _run_group_by(node, ctx)
    elif isinstance(node, P.OrderBy):
        yield from _run_order_by(node, ctx)
    elif isinstance(node, P.Cache):
        yield from _run_cache(node, ctx)
    else:
        raise TypeError(f"unknown plan node {type(node).__name__}")


def _run_stage(node: P.PlanNode, ctx: _ExecContext):
    runner = stage_runner(node)
    stats = ctx.stats
    for part in ctx.iterate(node.child):
        started = time.perf_counter()
        out = runner(part)
        if stats is not None:
            # Pure compute time (excluding child pulls), so
            # explain(analyze=True) can report per-stage rows/sec.
            stats.add_work(node, time.perf_counter() - started)
        yield out


def _drop_cached(meter, nbytes: int, spill, handles: list) -> None:
    """Give back what a cache holds: its resident bytes on the meter,
    its spilled partitions' files on disk."""
    if meter is not None:
        meter.release(nbytes)
    for handle in handles:
        spill.release(handle)


def _fill_cache(node: P.Cache, ctx: _ExecContext):
    """The cold pass: hand each partition on as it arrives and keep it
    (on disk once the budget is full).  The node turns hot only when
    its child is exhausted, so a consumer that stops early leaves it
    cold and holding nothing.  What a hot node holds is given back
    when the node is collected."""
    meter = ctx.meter
    budget = ctx.budget_share()
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
            nbytes = part.nbytes
            if resident + nbytes > budget:
                entries.append(ctx.spill.spill(part))
                ctx.note_spill(node, nbytes)
            else:
                resident += nbytes
                entries.append(part)
            yield part
        if meter is not None:
            meter.allocate(resident - metered)
        metered = resident
        if node.materialized is None:
            node.materialized = entries
    finally:
        handles = [e for e in entries if not isinstance(e, Partition)]
        if node.materialized is entries:
            weakref.finalize(
                node, _drop_cached, meter, metered, ctx.spill, handles
            )
        else:
            _drop_cached(meter, metered, ctx.spill, handles)


def _run_cache(node: P.Cache, ctx: _ExecContext):
    if node.materialized is None:
        yield from _fill_cache(node, ctx)
        return
    meter = ctx.meter
    for entry in node.materialized:
        if isinstance(entry, Partition):
            yield entry
            continue
        if ctx.spill is None:
            from repro.engine.spill import SpillError

            raise SpillError(
                "cache was spilled under a memory budget; replaying it "
                "requires the owning session's spill manager"
            )
        part = ctx.spill.restore(entry)
        if meter is not None:
            meter.allocate(part.nbytes)
        try:
            yield part
        finally:
            if meter is not None:
                meter.release(part.nbytes)


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


def _run_streaming_source(node: P.StreamingSource, ctx: _ExecContext):
    """Replay a streaming source's retained micro-batches, one
    partition per batch — partition boundaries follow ingestion
    boundaries, so a recompute over the view merges partials in the
    exact order the incremental state did."""
    meter = ctx.meter
    # Snapshot: appends racing this execution affect the next one.
    for part in list(node.batches):
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
    state_nbytes = 0

    for part in ctx.iterate(node.child):
        state.update([part.columns[k] for k in keys], part)
        if meter is not None:
            new_nbytes = state.nbytes
            meter.allocate(new_nbytes - state_nbytes)
            state_nbytes = new_nbytes

    out = state.to_partition(keys)
    if meter is not None:
        meter.release(state_nbytes)
        meter.allocate(out.nbytes)
    try:
        yield out
    finally:
        if meter is not None:
            meter.release(out.nbytes)


def _accumulate_dtypes(acc: dict | None, part: Partition) -> dict:
    """Fold one partition's column dtypes into the running
    ``np.result_type`` accumulation (what a whole-input concat would
    promote each column to — ``Partition.concat`` skips empty
    partitions, so they do not vote here either)."""
    if part.num_rows == 0:
        return acc
    if acc is None:
        return {n: a.dtype for n, a in part.columns.items()}
    for name, arr in part.columns.items():
        prev = acc.get(name)
        if prev is None:
            acc[name] = arr.dtype
        elif prev != arr.dtype:
            acc[name] = np.result_type(prev, arr.dtype)
    return acc


#: External-merge-sort tuning.  A run flushes at budget/_RUN_DIVISOR so
#: the transient flush peak (pending + concat + sorted run with its
#: int64 tiebreak column) stays within the budget; spilled runs are
#: chunked at budget/_CHUNK_DIVISOR so a merge holding one chunk per
#: run stays around budget/2; more than _MERGE_FANIN runs triggers a
#: cascade pass that re-merges groups into longer runs.
_RUN_DIVISOR = 3
_CHUNK_DIVISOR = 16
_MERGE_FANIN = 8
#: Hidden tiebreak column: the global arrival index of every row.  It
#: makes the sort order *total*, so k-way merge output is exactly the
#: in-memory stable lexsort (and its reverse for descending).
_SPILL_IDX = "__repro_spill_idx__"


def _order_by_memory_parts(node: P.OrderBy, ctx: _ExecContext, parts):
    meter = ctx.meter
    # Partition.concat handles all-empty inputs (schema-preserving
    # empty result), so no non-empty filtering is needed here.
    if not parts:
        return
    whole = Partition.concat(parts)
    if meter is not None:
        meter.allocate(whole.nbytes)
    try:
        key_arrays = [whole.columns[k] for k in reversed(node.keys)]
        order = np.lexsort(key_arrays)
        if not node.ascending:
            order = order[::-1]
        yield Partition(
            {name: arr[order] for name, arr in whole.columns.items()}
        )
    finally:
        if meter is not None:
            meter.release(whole.nbytes)


def _spill_chunked(part: Partition, chunk_bytes: int, ctx, node) -> list:
    """Spill one (sorted) partition as a sequence of row chunks of
    roughly ``chunk_bytes`` each; returns the chunk handles in order."""
    n = part.num_rows
    per_row = max(1, part.nbytes // max(1, n))
    rows_per_chunk = max(1, int(chunk_bytes // per_row))
    handles = []
    for start in range(0, n, rows_per_chunk):
        stop = min(n, start + rows_per_chunk)
        chunk = Partition._from_arrays(
            {name: arr[start:stop] for name, arr in part.columns.items()},
            stop - start,
        )
        handles.append(ctx.spill.spill(chunk))
        ctx.note_spill(node, chunk.nbytes)
    return handles


def _run_order_by(node: P.OrderBy, ctx: _ExecContext):
    """Global sort; an external merge sort once the input outgrows the
    memory budget.

    Input partitions are buffered until ~budget/3, then sorted into a
    *run* (with the arrival-index tiebreak column attached) and spilled
    in chunks.  Runs are k-way merged by replaying one chunk per run at
    a time — the merge itself re-uses ``np.lexsort``, so NaN and object
    key comparisons behave exactly like the single in-memory lexsort
    that input under the run budget gets.
    """
    meter = ctx.meter
    spill = ctx.spill
    run_budget = ctx.budget_share(_RUN_DIVISOR)
    chunk_bytes = ctx.budget_share(_CHUNK_DIVISOR)
    pending: list = []
    pending_bytes = 0
    next_idx = 0
    runs: list = []  # list of chunk-handle lists, each run sorted asc
    run_dtypes: list = []
    target_dtypes: dict | None = None

    def flush_run() -> None:
        nonlocal pending_bytes, next_idx
        whole = Partition.concat(pending)
        pending.clear()
        if meter is not None:
            meter.allocate(whole.nbytes)
            meter.release(pending_bytes)
        pending_bytes = 0
        run_nbytes = 0
        try:
            idx = np.arange(
                next_idx, next_idx + whole.num_rows, dtype=np.int64
            )
            next_idx += whole.num_rows
            key_arrays = [idx] + [
                whole.columns[k] for k in reversed(node.keys)
            ]
            order = np.lexsort(key_arrays)
            sorted_cols = {
                name: arr[order] for name, arr in whole.columns.items()
            }
            sorted_cols[_SPILL_IDX] = idx[order]
            run = Partition._from_arrays(sorted_cols, whole.num_rows)
            run_nbytes = run.nbytes
            if meter is not None:
                meter.allocate(run_nbytes)
            run_dtypes.append(
                {n: a.dtype for n, a in whole.columns.items()}
            )
            runs.append(_spill_chunked(run, chunk_bytes, ctx, node))
        finally:
            if meter is not None:
                meter.release(whole.nbytes + run_nbytes)

    try:
        for part in ctx.iterate(node.child):
            nbytes = part.nbytes
            # Flush *before* appending when this partition would push
            # pending past the run budget, so the buffered run never
            # overshoots by a whole (possibly large) partition.
            if (
                pending
                and pending_bytes + nbytes > run_budget
                and any(p.num_rows for p in pending)
            ):
                flush_run()
            pending.append(part)
            pending_bytes += nbytes
            if meter is not None:
                meter.allocate(nbytes)
            target_dtypes = _accumulate_dtypes(target_dtypes, part)
            if pending_bytes >= run_budget and any(
                p.num_rows for p in pending
            ):
                flush_run()

        if not runs:
            # Everything fit under the run budget: one in-memory sort.
            parts, pending = pending, []
            if meter is not None:
                meter.release(pending_bytes)
            pending_bytes = 0
            yield from _order_by_memory_parts(node, ctx, parts)
            return
        if pending:
            if any(p.num_rows for p in pending):
                flush_run()
            else:
                # Trailing all-empty partitions contribute no rows.
                pending.clear()
                if meter is not None:
                    meter.release(pending_bytes)
                pending_bytes = 0

        if any(
            dtypes[name] != target_dtypes[name]
            for dtypes in run_dtypes
            for name in dtypes
        ):
            # A column promoted differently across runs than the whole
            # concat would have: merging on mismatched dtypes cannot be
            # bit-identical, so restore everything and re-run the
            # in-memory sort (rare — mixed-dtype partitions).
            yield from _order_by_restore_fallback(node, ctx, runs)
            return

        # Cascade: cap merge fan-in so resident chunks stay bounded.
        while len(runs) > _MERGE_FANIN:
            merged_runs = []
            for i in range(0, len(runs), _MERGE_FANIN):
                group = runs[i : i + _MERGE_FANIN]
                if len(group) == 1:
                    merged_runs.append(group[0])
                    continue
                handles: list = []
                batch: list = []
                batch_bytes = 0
                for piece in _merge_spilled_runs(
                    group, node.keys, True, ctx, node, strip=False
                ):
                    batch.append(piece)
                    batch_bytes += piece.nbytes
                    if batch_bytes >= chunk_bytes:
                        merged = (
                            Partition.concat(batch)
                            if len(batch) > 1
                            else batch[0]
                        )
                        handles.extend(
                            _spill_chunked(merged, chunk_bytes, ctx, node)
                        )
                        batch = []
                        batch_bytes = 0
                if batch:
                    merged = (
                        Partition.concat(batch)
                        if len(batch) > 1
                        else batch[0]
                    )
                    handles.extend(
                        _spill_chunked(merged, chunk_bytes, ctx, node)
                    )
                merged_runs.append(handles)
            runs = merged_runs

        yield from _merge_spilled_runs(
            runs, node.keys, node.ascending, ctx, node, strip=True
        )
    finally:
        if meter is not None and pending_bytes:
            meter.release(pending_bytes)


def _order_by_restore_fallback(node: P.OrderBy, ctx: _ExecContext, runs):
    spill = ctx.spill
    parts = []
    for handles in runs:
        for handle in handles:
            parts.append(spill.restore(handle))
            spill.release(handle)
    whole = Partition.concat(parts)
    del parts
    arrival = np.argsort(whole.columns[_SPILL_IDX], kind="stable")
    restored = Partition._from_arrays(
        {
            name: arr[arrival]
            for name, arr in whole.columns.items()
            if name != _SPILL_IDX
        },
        whole.num_rows,
    )
    yield from _order_by_memory_parts(node, ctx, [restored])


def _merge_spilled_runs(runs, keys, ascending, ctx, node, strip):
    """K-way merge of sorted spilled runs, one resident chunk per run.

    Runs are stored ascending; for a descending sort the chunks are
    read last-to-first with rows reversed, which turns each run into a
    descending sequence and keeps the merge logic identical.  Each
    round lexsorts the concatenated head chunks (arrival-index column
    as the least-significant key, so the order is total) and emits the
    *safe prefix*: every row that precedes the last loaded row of each
    run that still has unread chunks — rows no unseen chunk can beat.

    Emissions are additionally cut at sort-key group boundaries, so
    rows with equal keys never straddle two output partitions — the
    invariant ``order_by`` consumers rely on ("every timestep lands in
    one place", ``df_formatter``).  A single key group larger than a
    chunk grows the resident buffers until its end is seen.
    """
    spill = ctx.spill
    meter = ctx.meter
    remaining = [list(handles) for handles in runs]
    if not ascending:
        for handles in remaining:
            handles.reverse()
    buffers: list = [None] * len(remaining)
    buf_bytes = [0] * len(remaining)

    def load(r: int) -> None:
        handle = remaining[r].pop(0)
        part = spill.restore(handle)
        spill.release(handle)
        if not ascending:
            part = Partition._from_arrays(
                {n: a[::-1] for n, a in part.columns.items()},
                part.num_rows,
            )
        if buffers[r] is None:
            buffers[r] = part
        else:
            buffers[r] = Partition.concat([buffers[r], part])
        nbytes = part.nbytes
        buf_bytes[r] += nbytes
        if meter is not None:
            meter.allocate(nbytes)

    try:
        grow_run: int | None = None
        while True:
            for r in range(len(remaining)):
                if remaining[r] and (grow_run == r or buffers[r] is None):
                    load(r)
            grow_run = None
            live = [r for r in range(len(remaining)) if buffers[r] is not None]
            if not live:
                return
            offsets = np.cumsum(
                [0] + [buffers[r].num_rows for r in live]
            )
            head = Partition.concat([buffers[r] for r in live])
            key_arrays = [head.columns[_SPILL_IDX]] + [
                head.columns[k] for k in reversed(keys)
            ]
            order = np.lexsort(key_arrays)
            if not ascending:
                order = order[::-1]
            pos = np.empty(len(order), dtype=np.int64)
            pos[order] = np.arange(len(order))
            final = not any(remaining[r] for r in live)
            safe = head.num_rows
            limiting = None
            for j, r in enumerate(live):
                if remaining[r]:
                    boundary = int(pos[offsets[j + 1] - 1])
                    if boundary + 1 < safe or limiting is None:
                        limiting = r
                    safe = min(safe, boundary + 1)
            if not final:
                # An unseen row can still belong to the key group of
                # the last safe row, so only whole groups up to that
                # one may be emitted.  When nothing is emittable, pull
                # the next chunk of the run that limits the safe
                # prefix and retry.
                safe = _last_group_start(head, keys, order, safe)
                if safe == 0:
                    grow_run = limiting
                    continue
            emit = order[:safe]
            out = Partition._from_arrays(
                {
                    name: head.columns[name][emit]
                    for name in head.columns
                    if not strip or name != _SPILL_IDX
                },
                safe,
            )
            consumed = np.bincount(
                np.searchsorted(offsets[1:], emit, side="right"),
                minlength=len(live),
            )
            out_nbytes = out.nbytes
            if meter is not None:
                meter.allocate(out_nbytes)
            try:
                yield out
            finally:
                if meter is not None:
                    meter.release(out_nbytes)
            for j, r in enumerate(live):
                used = int(consumed[j])
                buf = buffers[r]
                if used == buf.num_rows:
                    buffers[r] = None
                    if meter is not None:
                        meter.release(buf_bytes[r])
                    buf_bytes[r] = 0
                elif used:
                    buffers[r] = Partition._from_arrays(
                        {
                            n: a[used:]
                            for n, a in buf.columns.items()
                        },
                        buf.num_rows - used,
                    )
                    # Re-estimate so partially consumed buffers do not
                    # stay metered at full size (group-cut leftovers
                    # mean buffers rarely empty completely).
                    left_bytes = buffers[r].nbytes
                    if meter is not None and left_bytes < buf_bytes[r]:
                        meter.release(buf_bytes[r] - left_bytes)
                        buf_bytes[r] = left_bytes
    finally:
        if meter is not None:
            meter.release(sum(buf_bytes))
        for handles in remaining:
            for handle in handles:
                spill.release(handle)


def _last_group_start(head, keys, order, safe: int) -> int:
    """Start index (in output order) of the key group containing row
    ``safe - 1``: emitting ``order[:start]`` contains only complete
    sort-key groups.  Returns 0 when the whole prefix is one group."""
    if safe == 0:
        return 0
    idx = order[:safe]
    change = np.zeros(safe, dtype=bool)
    change[0] = True
    if safe > 1:
        for key in keys:
            col = head.columns[key]
            vals = col[idx]
            neq = vals[1:] != vals[:-1]
            if col.dtype.kind == "f":
                # NaN != NaN would make every NaN row its own group;
                # consecutive NaNs are one group, like the in-memory
                # single-partition output keeps them together.
                neq &= ~(np.isnan(vals[1:]) & np.isnan(vals[:-1]))
            change[1:] |= neq
    return int(np.flatnonzero(change)[-1])


def plan_column_names(node: P.PlanNode) -> list[str]:
    """Statically derive output column names of a plan."""
    return static_columns(node, strict=False)
