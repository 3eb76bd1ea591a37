"""Plan execution: streams partitions through the operator tree.

Every operator has exactly one implementation here.

Narrow operators (project / filter / with_column / drop) run as
*stages* — a fused :class:`~repro.engine.plan.CompiledStage`, or a
one-step stage for a narrow node the stage compiler never saw — through
:class:`~repro.engine.compile.StageRunner`.  Together with
map_partitions / union / limit they are fully pipelined: one input
partition is pulled, transformed, yielded, and released before the next
is pulled, so the working set stays O(partition).

Wide operators hold only their *state*: the factorized key codes for
joins (build side), the per-group accumulator arrays for aggregation,
and the input buffer for order_by, repartition and cache (the
materializing operators, as in Spark).  The materializing operators
are parameterised by the session memory budget: what exceeds it spills
to disk through the session's SpillManager (external merge sort, grace
hash join, spillable buffers); with no budget nothing ever exceeds it
and the same code runs entirely in memory.  Results are bit-identical
at every budget.

Joins and group-bys are vectorized end to end.  The join factorizes
the build side's (possibly multi-column) keys into dense integer codes
once, then probes each left partition with ``searchsorted`` range
lookups — no per-row Python.  Group-by keeps per-group accumulator
*arrays* (:class:`~repro.engine.aggregates.ArrayGroupState`), packs
each key row into one order-preserving int64 code, and merges each
partition's partial aggregates by ``searchsorted`` + scatter updates;
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
    ``budget``) bounds the materializing operators — order_by,
    repartition, the join build side, cache: they keep at most the
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
    elif isinstance(node, P.Join):
        yield from _run_join(node, ctx)
    elif isinstance(node, P.OrderBy):
        yield from _run_order_by(node, ctx)
    elif isinstance(node, P.Repartition):
        yield from _run_repartition(node, ctx)
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
        if part.num_rows == 0:
            continue
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


# ----------------------------------------------------------------------
# Join: vectorized key factorization + searchsorted range probes
# ----------------------------------------------------------------------
class _ColumnCodec:
    """Factorization of one build-side key column.

    Numeric columns keep their sorted uniques and map probe values with
    ``searchsorted``; object columns (strings, geometries) fall back to
    a value -> code dict.  Probe values absent from the build side get
    code -1.
    """

    __slots__ = ("uniques", "mapping", "size", "dense", "base")

    # Dense-range integer keys are coded as ``value - min`` directly —
    # no factorization pass at all — as long as the implied code range
    # (and the per-code tables sized by it) stays proportionate to the
    # build side.  Unused codes in the range simply get count zero.
    _DENSE_SLACK = 4
    _DENSE_MIN = 1 << 20

    def __init__(self, arr: np.ndarray):
        self.dense = False
        self.base = 0
        self.uniques = None
        self.mapping = None
        if arr.dtype == object:
            mapping: dict = {}
            for value in arr:
                mapping.setdefault(value, len(mapping))
            self.mapping = mapping
            self.size = len(mapping)
            return
        if arr.dtype.kind in "iub" and len(arr):
            low, high = int(arr.min()), int(arr.max())
            span = high - low + 1
            if (
                span <= max(self._DENSE_SLACK * len(arr), self._DENSE_MIN)
                and -(1 << 62) < low
                and high < (1 << 62)
            ):
                self.dense = True
                self.base = low
                self.size = span
                return
        self.uniques = np.unique(arr)
        self.size = len(self.uniques)

    def encode_build(self, arr: np.ndarray) -> np.ndarray:
        return self.encode_probe(arr)

    def encode_probe(self, arr: np.ndarray) -> np.ndarray:
        if self.mapping is not None or arr.dtype == object:
            mapping = self.mapping
            if mapping is None:
                mapping = {v: i for i, v in enumerate(self.uniques)}
                self.mapping = mapping
            return np.fromiter(
                (mapping.get(v, -1) for v in arr),
                dtype=np.int64,
                count=len(arr),
            )
        if self.dense:
            if arr.dtype.kind not in "iub":
                arr = np.asarray(arr)
                with np.errstate(invalid="ignore"):
                    whole = arr.astype(np.int64)
                    exact = whole == arr
                offsets = whole - self.base
                valid = exact & (offsets >= 0) & (offsets < self.size)
            else:
                offsets = arr.astype(np.int64) - self.base
                valid = (offsets >= 0) & (offsets < self.size)
            return np.where(valid, offsets, -1)
        idx = np.searchsorted(self.uniques, arr)
        idx = np.minimum(idx, self.size - 1)
        with np.errstate(invalid="ignore"):
            valid = self.uniques[idx] == arr
        return np.where(valid, idx, -1).astype(np.int64)

    @property
    def nbytes(self) -> int:
        if self.uniques is not None:
            return int(self.uniques.nbytes)
        if self.dense:
            return 0  # per-code tables are counted by the build
        return self.size * 64  # rough dict-entry estimate


class _HashJoinBuild:
    """Build side of the broadcast hash join, fully vectorized.

    Multi-column keys are folded into one dense int64 code per row by
    factorizing each column, then pairwise combining and re-compressing
    (keeping magnitudes < n_right² so the fold can never overflow).
    Because the final codes are dense 0..U-1, the row ranges per code
    are direct-indexed tables (``bincount`` + prefix sums): probing a
    left partition costs one encode pass plus fancy indexing, with no
    per-row Python and no binary search over the build rows.  Within
    one key the matched build rows keep their original order,
    preserving the per-row hash table's output ordering.
    """

    def __init__(self, right: Partition, on: list):
        self.codecs = []
        self.combine_uniques = []  # compressed code values per fold step
        codes = None
        for name in on:
            arr = right.columns[name]
            codec = _ColumnCodec(arr)
            self.codecs.append(codec)
            column_codes = codec.encode_build(arr)
            if codes is None:
                codes = column_codes
            else:
                codes = codes * (codec.size + 1) + column_codes
                uniques, codes = np.unique(codes, return_inverse=True)
                codes = codes.reshape(-1).astype(np.int64)
                self.combine_uniques.append(uniques)
        self.num_codes = (
            self.codecs[0].size if len(on) == 1 else len(self.combine_uniques[-1])
        )
        self.order = np.argsort(codes, kind="stable")
        counts = np.bincount(codes, minlength=self.num_codes)
        self.count_by_code = counts.astype(np.int64)
        self.start_by_code = np.concatenate(
            ([0], np.cumsum(self.count_by_code)[:-1])
        )

    def probe_codes(self, part: Partition, on: list) -> np.ndarray:
        codes = None
        step = 0
        for codec, name in zip(self.codecs, on):
            column_codes = codec.encode_probe(
                np.asarray(part.columns[name])
            )
            if codes is None:
                codes = column_codes
            else:
                missing = (codes < 0) | (column_codes < 0)
                codes = codes * (codec.size + 1) + column_codes
                uniques = self.combine_uniques[step]
                step += 1
                idx = np.searchsorted(uniques, codes)
                idx = np.minimum(idx, len(uniques) - 1)
                valid = (uniques[idx] == codes) & ~missing
                codes = np.where(valid, idx, -1).astype(np.int64)
        return codes

    def probe(self, part: Partition, on: list):
        """Return (left_idx, right_idx, match_counts) for one left
        partition, matching the per-row build/probe output order."""
        codes = self.probe_codes(part, on)
        hit = codes >= 0
        safe = np.where(hit, codes, 0)
        counts = np.where(hit, self.count_by_code[safe], 0)
        starts = self.start_by_code[safe]
        total = int(counts.sum())
        left_idx = np.repeat(
            np.arange(part.num_rows, dtype=np.int64), counts
        )
        cumulative = np.cumsum(counts)
        within = np.arange(total, dtype=np.int64) - np.repeat(
            cumulative - counts, counts
        )
        right_idx = self.order[np.repeat(starts, counts) + within]
        return left_idx, right_idx, counts

    @property
    def nbytes(self) -> int:
        total = int(
            self.order.nbytes
            + self.count_by_code.nbytes
            + self.start_by_code.nbytes
        )
        for codec in self.codecs:
            total += codec.nbytes
        for uniques in self.combine_uniques:
            total += int(uniques.nbytes)
        return total


def _left_join_promote(arr: np.ndarray) -> np.ndarray:
    """Right-side value columns of a left join are promoted explicitly:
    integer/bool become float64 so unmatched rows can hold NaN with a
    dtype that does not depend on which partitions had matches."""
    if arr.dtype.kind in "iub":
        return arr.astype(np.float64)
    return arr


def _null_fill(dtype: np.dtype, n: int) -> np.ndarray:
    """Unmatched-row fill for a right column, sentinel chosen per dtype:
    NaN for floats (and promoted int/bool), NaT for datetimes, NaN
    boxed in object arrays otherwise."""
    if dtype.kind in "iub":
        return np.full(n, np.nan, dtype=np.float64)
    if dtype.kind in "fc":
        return np.full(n, np.nan, dtype=dtype)
    if dtype.kind in "mM":
        return np.full(n, dtype.type("NaT"), dtype=dtype)
    out = np.empty(n, dtype=object)
    out[:] = np.nan
    return out


def _join_probe_stream(node: P.Join, ctx: _ExecContext, right_parts):
    """Build over the buffered right side, probe the streaming left
    side.  The caller owns the build buffer's memory accounting; this
    meters only the probe tables."""
    meter = ctx.meter
    probe_nbytes = 0
    try:
        right = Partition.concat(right_parts) if right_parts else None
        build = None
        right_value_names: list = []
        if right is not None:
            build = _HashJoinBuild(right, node.on)
            right_value_names = [
                n for n in right.columns if n not in node.on
            ]
            probe_nbytes = build.nbytes
            if meter is not None:
                meter.allocate(probe_nbytes)
        promote = node.how == "left"

        for part in ctx.iterate(node.left):
            if part.num_rows == 0:
                continue
            if build is None:
                left_idx = np.empty(0, dtype=np.int64)
                right_idx = left_idx
                counts = np.zeros(part.num_rows, dtype=np.int64)
            else:
                left_idx, right_idx, counts = build.probe(part, node.on)
            columns = {
                name: arr[left_idx] for name, arr in part.columns.items()
            }
            for name in right_value_names:
                matched = right.columns[name][right_idx]
                columns[name] = (
                    _left_join_promote(matched) if promote else matched
                )
            matched_part = Partition(columns)
            if node.how == "left":
                unmatched = np.nonzero(counts == 0)[0]
                if len(unmatched):
                    null_cols = {
                        name: arr[unmatched]
                        for name, arr in part.columns.items()
                    }
                    for name in right_value_names:
                        null_cols[name] = _null_fill(
                            right.columns[name].dtype, len(unmatched)
                        )
                    matched_part = Partition.concat(
                        [matched_part, Partition(null_cols)]
                    )
            yield matched_part
    finally:
        if meter is not None:
            meter.release(probe_nbytes)


def _run_join(node: P.Join, ctx: _ExecContext):
    """Broadcast hash join: buffer the build (right) side up to the
    memory budget; if it fits, build over the buffered partitions and
    probe the streaming left side, otherwise switch to the
    grace-partitioned spill path."""
    meter = ctx.meter
    budget = ctx.budget_share()
    buffered: list = []
    buffered_bytes = 0
    over = False
    right_iter = ctx.iterate(node.right)
    for part in right_iter:
        if part.num_rows == 0:
            continue
        buffered.append(part)
        buffered_bytes += part.nbytes
        if meter is not None:
            meter.allocate(part.nbytes)
        if buffered_bytes > budget:
            over = True
            break
    if not over:
        try:
            yield from _join_probe_stream(node, ctx, buffered)
        finally:
            if meter is not None:
                meter.release(buffered_bytes)
        return
    yield from _join_grace(node, ctx, buffered, right_iter, buffered_bytes)


#: Hash buckets for the grace join; each bucket's build table is
#: restored (and built) independently, so the resident build state is
#: roughly build_bytes / _GRACE_BUCKETS.
_GRACE_BUCKETS = 8
_BUCKET_COL = "__repro_bucket__"
_LEFT_IDX_COL = "__repro_left_idx__"


def _grace_column_hash(arr: np.ndarray) -> np.ndarray:
    """Per-row uint64 hash of one key column, consistent across the
    dtypes the probe codecs already match across: int 3, float 3.0,
    bool True and a Python ``3`` in an object column all hash alike.
    Non-integral floats hash by bit pattern (they can only ever match
    other floats); unhashable objects fall into bucket 0 on both
    sides, which degrades distribution, never correctness."""
    n = len(arr)
    if arr.dtype == object:
        out = np.empty(n, dtype=np.uint64)
        for i, value in enumerate(arr):
            try:
                out[i] = np.uint64(hash(value) & 0xFFFFFFFFFFFFFFFF)
            except TypeError:
                out[i] = np.uint64(0)
        return out
    if arr.dtype.kind in "iub":
        return arr.astype(np.int64).astype(np.uint64)
    if arr.dtype.kind in "mM":
        return arr.astype(np.int64).astype(np.uint64)
    if arr.dtype.kind == "f":
        arr64 = np.ascontiguousarray(arr, dtype=np.float64)
        with np.errstate(invalid="ignore"):
            whole = arr64.astype(np.int64)
            exact = np.isfinite(arr64) & (whole == arr64)
        return np.where(
            exact, whole.astype(np.uint64), arr64.view(np.uint64)
        )
    return np.zeros(n, dtype=np.uint64)


def _grace_bucket_codes(part: Partition, on: list, nb: int) -> np.ndarray:
    mixed = np.zeros(part.num_rows, dtype=np.uint64)
    for name in on:
        mixed = mixed * np.uint64(1_000_003) + _grace_column_hash(
            part.columns[name]
        )
    return (mixed % np.uint64(nb)).astype(np.int64)


def _join_grace(
    node: P.Join, ctx: _ExecContext, buffered, right_iter, buffered_bytes
):
    """Grace-style partitioned join: hash-partition the build side into
    spilled buckets, buffer (and spill) the probe side, then join one
    bucket's build table at a time.  Because every row of one key lands
    in exactly one bucket (in original build order), re-sorting each
    probe partition's matches by probe-row position reproduces the
    in-memory join's output bit for bit."""
    from repro.engine.spill import SpillableBuffer, SpillHandle

    meter = ctx.meter
    spill = ctx.spill
    on = node.on
    nb = _GRACE_BUCKETS
    per_bucket_budget = ctx.budget_share(2 * nb)
    bucket_pending: list = [[] for _ in range(nb)]
    bucket_pending_bytes = [0] * nb
    bucket_handles: list = [[] for _ in range(nb)]
    target_dtypes: dict | None = None
    column_order: list | None = None

    def flush_bucket(b: int) -> None:
        merged = Partition.concat(bucket_pending[b])
        bucket_pending[b].clear()
        if meter is not None:
            meter.release(bucket_pending_bytes[b])
        bucket_pending_bytes[b] = 0
        bucket_handles[b].append(spill.spill(merged))
        ctx.note_spill(node, merged.nbytes)

    def route(part: Partition) -> None:
        nonlocal target_dtypes, column_order
        if column_order is None:
            column_order = list(part.columns)
        target_dtypes = _accumulate_dtypes(target_dtypes, part)
        codes = _grace_bucket_codes(part, on, nb)
        for b in range(nb):
            sel = np.flatnonzero(codes == b)
            if not len(sel):
                continue
            sub = Partition._from_arrays(
                {n: a[sel] for n, a in part.columns.items()}, len(sel)
            )
            bucket_pending[b].append(sub)
            nbytes = sub.nbytes
            bucket_pending_bytes[b] += nbytes
            if meter is not None:
                meter.allocate(nbytes)
            if bucket_pending_bytes[b] >= per_bucket_budget:
                flush_bucket(b)

    # ---- Phase 1: hash-partition the build side into spilled buckets.
    for part in buffered:
        route(part)
    buffered.clear()
    if meter is not None:
        meter.release(buffered_bytes)
    for part in right_iter:
        if part.num_rows == 0:
            continue
        route(part)
    for b in range(nb):
        if bucket_pending[b]:
            flush_bucket(b)

    # ---- Phase 2: buffer the probe side (bucket codes ride along so
    # the per-bucket probe pass never recomputes hashes).
    left_buf = SpillableBuffer(spill, ctx.budget_share(2))
    for part in ctx.iterate(node.left):
        if part.num_rows == 0:
            continue
        codes = _grace_bucket_codes(part, on, nb)
        stored = part.with_column(_BUCKET_COL, codes)
        spilled = left_buf.append(stored)
        if spilled:
            ctx.note_spill(node, spilled)
        elif meter is not None:
            meter.allocate(stored.nbytes)

    promote = node.how == "left"
    right_value_names = [
        n for n in (column_order or []) if n not in on
    ]
    # Per probe partition: the match pieces each bucket produced, in
    # bucket order (Partition or SpillHandle).
    pieces: list = [[] for _ in range(len(left_buf))]
    pieces_mem = 0
    piece_budget = ctx.budget_share(4)

    try:
        # ---- Phase 3: per bucket — restore, build once, probe every
        # buffered probe partition's rows for that bucket.
        for b in range(nb):
            handles = bucket_handles[b]
            if not handles:
                continue
            bucket_parts = []
            for handle in handles:
                bucket_parts.append(spill.restore(handle))
                spill.release(handle)
            handles.clear()
            raw = Partition.concat(bucket_parts)
            del bucket_parts
            # Cast to the dtypes a whole-build concat would have
            # produced, so matched values are bit-identical to the
            # under-budget join even with mixed-dtype build partitions.
            cast_cols = {}
            for name in column_order:
                arr = raw.columns[name]
                target = target_dtypes[name]
                cast_cols[name] = (
                    arr if arr.dtype == target else arr.astype(target)
                )
            bucket_right = Partition._from_arrays(cast_cols, raw.num_rows)
            build = _HashJoinBuild(bucket_right, on)
            state_nbytes = bucket_right.nbytes + build.nbytes
            if meter is not None:
                meter.allocate(state_nbytes)
            try:
                for i, part in enumerate(left_buf.replay()):
                    sel = np.flatnonzero(part.columns[_BUCKET_COL] == b)
                    if not len(sel):
                        continue
                    sub = Partition._from_arrays(
                        {
                            n: part.columns[n][sel]
                            for n in part.columns
                            if n != _BUCKET_COL
                        },
                        len(sel),
                    )
                    left_idx, right_idx, _counts = build.probe(sub, on)
                    if not len(left_idx):
                        continue
                    piece_cols = {_LEFT_IDX_COL: sel[left_idx]}
                    for name in right_value_names:
                        matched = bucket_right.columns[name][right_idx]
                        piece_cols[name] = (
                            _left_join_promote(matched)
                            if promote
                            else matched
                        )
                    piece = Partition._from_arrays(
                        piece_cols, len(left_idx)
                    )
                    nbytes = piece.nbytes
                    if pieces_mem + nbytes > piece_budget:
                        pieces[i].append(spill.spill(piece))
                        ctx.note_spill(node, nbytes)
                    else:
                        pieces[i].append(piece)
                        pieces_mem += nbytes
                        if meter is not None:
                            meter.allocate(nbytes)
            finally:
                if meter is not None:
                    meter.release(state_nbytes)

        # ---- Phase 4: per probe partition — stitch the bucket pieces
        # back into probe-row order and emit, matching the in-memory
        # join's per-partition output exactly.
        for i, part in enumerate(left_buf.replay()):
            restored = []
            for entry in pieces[i]:
                if isinstance(entry, SpillHandle):
                    restored.append(spill.restore(entry))
                    spill.release(entry)
                else:
                    restored.append(entry)
            pieces[i] = []
            left_names = [n for n in part.columns if n != _BUCKET_COL]
            if restored:
                li = _concat_arrays(
                    [r.columns[_LEFT_IDX_COL] for r in restored]
                )
                order = np.argsort(li, kind="stable")
                li_sorted = li[order]
                columns = {
                    n: part.columns[n][li_sorted] for n in left_names
                }
                for name in right_value_names:
                    vals = _concat_arrays(
                        [r.columns[name] for r in restored]
                    )
                    columns[name] = vals[order]
            else:
                li_sorted = np.empty(0, dtype=np.int64)
                columns = {
                    n: part.columns[n][li_sorted] for n in left_names
                }
                for name in right_value_names:
                    empty = np.empty(0, dtype=target_dtypes[name])
                    columns[name] = (
                        _left_join_promote(empty) if promote else empty
                    )
            matched_part = Partition(columns)
            if node.how == "left":
                counts = np.bincount(
                    li_sorted, minlength=part.num_rows
                ) if len(li_sorted) else np.zeros(
                    part.num_rows, dtype=np.int64
                )
                unmatched = np.nonzero(counts == 0)[0]
                if len(unmatched):
                    null_cols = {
                        n: part.columns[n][unmatched] for n in left_names
                    }
                    for name in right_value_names:
                        null_cols[name] = _null_fill(
                            target_dtypes[name], len(unmatched)
                        )
                    matched_part = Partition.concat(
                        [matched_part, Partition(null_cols)]
                    )
            yield matched_part
    finally:
        if meter is not None:
            meter.release(left_buf.in_memory_bytes + pieces_mem)
        left_buf.release()


def _concat_arrays(arrays: list) -> np.ndarray:
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


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


def _run_repartition(node: P.Repartition, ctx: _ExecContext):
    """Repartition is a materializing operator like order_by: the
    whole input is buffered (input beyond half the memory budget
    spills), then the output slices are assembled by streaming the
    buffer back — each column cast to the dtype a whole-input concat
    would produce, so slice contents do not depend on what spilled."""
    from repro.engine.spill import SpillableBuffer

    meter = ctx.meter
    buf = SpillableBuffer(ctx.spill, ctx.budget_share(2))
    target_dtypes: dict | None = None
    saw_input = False
    for part in ctx.iterate(node.child):
        saw_input = True
        target_dtypes = _accumulate_dtypes(target_dtypes, part)
        spilled = buf.append(part)
        if spilled:
            ctx.note_spill(node, spilled)
        elif meter is not None:
            meter.allocate(part.nbytes)
    try:
        if not saw_input:
            return
        n = buf.num_rows
        k = max(1, int(node.num_partitions))
        bounds = np.linspace(0, n, k + 1).astype(int)
        stream = buf.replay()
        current: Partition | None = None
        cur_off = 0
        for start, stop in zip(bounds[:-1], bounds[1:]):
            want = int(stop - start)
            if want <= 0:
                continue
            pieces = []
            got = 0
            while got < want:
                if current is None or cur_off >= current.num_rows:
                    current = next(stream)
                    cur_off = 0
                    if current.num_rows == 0:
                        current = None
                        continue
                take = min(want - got, current.num_rows - cur_off)
                pieces.append((current, cur_off, cur_off + take))
                cur_off += take
                got += take
            out = _assemble_slices(pieces, target_dtypes)
            out_nbytes = out.nbytes
            if meter is not None:
                meter.allocate(out_nbytes)
            try:
                yield out
            finally:
                if meter is not None:
                    meter.release(out_nbytes)
    finally:
        if meter is not None:
            meter.release(buf.in_memory_bytes)
        buf.release()


def _assemble_slices(pieces, target_dtypes: dict) -> Partition:
    columns = {}
    for name, target in target_dtypes.items():
        arrays = []
        for part, start, stop in pieces:
            arr = part.columns[name][start:stop]
            if arr.dtype != target:
                arr = arr.astype(target)
            arrays.append(arr)
        columns[name] = (
            arrays[0].copy()
            if len(arrays) == 1
            else np.concatenate(arrays)
        )
    num_rows = sum(stop - start for _, start, stop in pieces)
    return Partition._from_arrays(columns, num_rows)


def plan_column_names(node: P.PlanNode) -> list[str]:
    """Statically derive output column names of a plan."""
    return static_columns(node, strict=False)
