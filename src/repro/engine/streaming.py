"""Incremental streaming ingestion: delta-maintained aggregation.

Production traffic arrives continuously; recomputing group-by state
and grid tensors from scratch on every new slice makes ingestion cost
O(history).  This module makes it O(batch):

- :class:`Stream` (``Session.stream(schema)``) ingests record
  micro-batches.  Each ``append`` lands as one immutable
  :class:`~repro.engine.partition.Partition` on an append-only
  :class:`~repro.engine.plan.StreamingSource` plan node, so
  ``Stream.view()`` is an ordinary lazy DataFrame over the full
  retained history — filters, joins, and batch group-bys all work.
- :class:`StreamingAggregation` (``stream.aggregate(...)``) maintains
  group-by state *incrementally*: a :class:`DeltaState` persists the
  batch executor's :class:`~repro.engine.aggregates.ArrayGroupState`
  across batches and merges each new batch's partial aggregates into
  it.  Because the persistent state and the batch group-by run the
  same merge code over the same partition boundaries, the maintained
  result is bit-identical to ``view().group_by(...).agg(...)`` — not
  approximately equal, equal (pinned by
  ``tests/property/test_property_streaming.py``).
- :class:`WindowSpec` adds tumbling/sliding *event-time* windows with
  a watermark: rows older than ``max_event_time - watermark_delay``
  whose window has closed are dropped as late, and closed windows are
  finalized and evicted from the live state, so state stays bounded
  by the number of *open* windows rather than by history.

Per-batch deltas (``StreamingAggregation.delta()``) feed downstream
incremental maintenance — most importantly
``STManager.update_st_grid_array``, which scatters only the touched
(cell, timestep) entries of an existing grid tensor.

Observability: every append is traced (``engine.stream.append`` span)
and metered — ``engine.stream.batches`` / ``rows`` / ``late_rows`` /
``evicted_windows`` counters, an ``engine.stream.state_groups`` gauge,
and two :class:`~repro.obs.metrics.WindowedHistogram` latency classes:
``engine.stream.update_seconds`` (time to absorb one batch) and
``engine.stream.batch_lag_seconds`` (gap between consecutive appends,
i.e. how far behind real time an exporter reading the stream could
be).
"""

from __future__ import annotations

import time

import numpy as np

from repro.engine import plan as P
from repro.engine.aggregates import AggSpec, ArrayGroupState
from repro.engine.dataframe import DataFrame
from repro.engine.partition import Partition
from repro.engine.schema import Schema

__all__ = [
    "DeltaState",
    "Stream",
    "StreamingAggregation",
    "WindowSpec",
    "WINDOW_COLUMN",
]

#: Name of the event-time window key column a windowed aggregation
#: prepends to the user's group keys (the window's inclusive start).
WINDOW_COLUMN = "window_start"

_metrics = None


def _stream_metrics():
    """Lazy process-wide metric handles (same pattern as tensor.pool)."""
    global _metrics
    if _metrics is None:
        from repro import obs

        _metrics = {
            "batches": obs.registry.counter("engine.stream.batches"),
            "rows": obs.registry.counter("engine.stream.rows"),
            "late_rows": obs.registry.counter("engine.stream.late_rows"),
            "evicted": obs.registry.counter("engine.stream.evicted_windows"),
            "groups": obs.registry.gauge("engine.stream.state_groups"),
            "update_s": obs.registry.windowed_histogram(
                "engine.stream.update_seconds"
            ),
            "lag_s": obs.registry.windowed_histogram(
                "engine.stream.batch_lag_seconds"
            ),
        }
    return _metrics


class WindowSpec:
    """An event-time window assignment over a timestamp column.

    ``size`` is the window length in event-time units; ``slide``
    (default ``size``) is the hop between window starts.  With
    ``slide == size`` windows tumble (each event belongs to exactly
    one window); with ``slide < size`` they overlap and each event
    belongs to ``ceil(size / slide)`` candidate windows.  ``origin``
    anchors the window grid (window starts are
    ``origin + k * slide``).
    """

    __slots__ = ("time_column", "size", "slide", "origin")

    def __init__(
        self,
        time_column: str,
        size: float,
        slide: float | None = None,
        origin: float = 0.0,
    ):
        if size <= 0:
            raise ValueError("window size must be positive")
        slide = size if slide is None else slide
        if slide <= 0 or slide > size:
            raise ValueError("slide must satisfy 0 < slide <= size")
        self.time_column = time_column
        self.size = float(size)
        self.slide = float(slide)
        self.origin = float(origin)

    def assign(self, times: np.ndarray):
        """Map event times to (row_index, window_start) pairs.

        Tumbling windows return one pair per row (row_index is just
        arange); sliding windows replicate rows into every window that
        covers them.  Assignment is pure float arithmetic on the event
        times, so it is deterministic and independent of batching.
        """
        times = np.asarray(times, dtype=np.float64)
        last_start = (
            np.floor((times - self.origin) / self.slide) * self.slide
            + self.origin
        )
        if self.slide == self.size:
            return np.arange(len(times), dtype=np.int64), last_start
        num_candidates = int(np.ceil(self.size / self.slide))
        offsets = np.arange(num_candidates, dtype=np.float64) * self.slide
        starts = last_start[:, None] - offsets[None, :]
        covered = times[:, None] < starts + self.size
        idx, which = np.nonzero(covered)
        return idx.astype(np.int64), starts[idx, which]

    def __repr__(self):
        kind = "tumbling" if self.slide == self.size else "sliding"
        return (
            f"WindowSpec({kind}, {self.time_column!r}, size={self.size}, "
            f"slide={self.slide}, origin={self.origin})"
        )


class DeltaState:
    """Persistent, mergeable group-by state updated one batch at a
    time.

    Wraps the batch executor's :class:`ArrayGroupState` — the *same*
    class, not a reimplementation — so feeding it the micro-batches in
    arrival order performs exactly the partial-merge sequence a batch
    group-by over those partitions performs, making the maintained
    accumulators bit-identical to a full recompute.  On top of that it
    tracks which groups the most recent batch touched (for delta
    emission) and supports watermark eviction of closed groups.
    """

    def __init__(self, keys: list, specs: list):
        self.keys = list(keys)
        self.specs = list(specs)
        self.state = ArrayGroupState(self.specs)
        self.last_changed = np.empty(0, dtype=np.int64)

    @property
    def num_groups(self) -> int:
        return self.state.num_groups

    @property
    def nbytes(self) -> int:
        return self.state.nbytes

    def update(self, part: Partition) -> int:
        """Merge one micro-batch; returns the number of distinct
        groups it touched."""
        if part.num_rows == 0:
            self.last_changed = np.empty(0, dtype=np.int64)
            return 0
        key_columns = [part.columns[k] for k in self.keys]
        if any(np.asarray(c).dtype.kind in "OUS" for c in key_columns):
            raise TypeError(
                "streaming aggregation state requires numeric group keys; "
                f"got non-numeric keys {self.keys}"
            )
        self.last_changed = self.state.update(key_columns, part)
        return len(self.last_changed)

    def to_partition(self) -> Partition:
        """The full current state finalized as one partition (same
        layout as the batch group-by's output)."""
        return self.state.to_partition(self.keys)

    def delta_partition(self) -> Partition:
        """Only the groups the last ``update`` touched, finalized —
        the rows a downstream incremental consumer must re-apply."""
        return self.state.select(self.last_changed).to_partition(self.keys)

    def evict_below(self, key_index: int, threshold: float) -> Partition:
        """Finalize and remove every group whose ``key_index``-th key
        is at or below ``threshold``; returns the evicted groups as a
        partition (the "closed windows" emission)."""
        if self.state.num_groups == 0:
            return self.state.to_partition(self.keys)
        column = self.state.keys[:, key_index].astype(np.float64)
        closing = column <= threshold
        closed = self.state.select(closing).to_partition(self.keys)
        self.state.compact(~closing)
        # Positions shift after compaction; a delta computed before the
        # eviction no longer indexes this state.
        self.last_changed = np.empty(0, dtype=np.int64)
        return closed


class StreamingAggregation:
    """A continuously maintained ``group_by(...).agg(...)`` over a
    :class:`Stream`, optionally windowed by event time.

    Non-windowed: state is keyed by the group keys and grows with the
    number of distinct groups.  ``to_partition()`` equals
    ``stream.view().group_by(*keys).agg(*specs)`` bit for bit.

    Windowed: each row is first assigned to its event-time window(s);
    state is keyed by ``(window_start, *keys)``.  A watermark trails
    the maximum event time seen by ``watermark_delay``; rows whose
    window closed before the watermark are dropped as late, and closed
    windows are finalized into :attr:`closed` and evicted so live
    state stays bounded.
    """

    def __init__(
        self,
        stream: "Stream",
        keys: list,
        specs: list,
        window: WindowSpec | None = None,
        watermark_delay: float = 0.0,
    ):
        for spec in specs:
            if not isinstance(spec, AggSpec):
                raise TypeError(f"expected AggSpec, got {spec!r}")
        if watermark_delay < 0:
            raise ValueError("watermark_delay must be >= 0")
        self.stream = stream
        self.group_keys = list(keys)
        self.specs = list(specs)
        self.window = window
        self.watermark_delay = float(watermark_delay)
        self.watermark = -np.inf
        state_keys = (
            [WINDOW_COLUMN] + self.group_keys
            if window is not None
            else self.group_keys
        )
        self.delta_state = DeltaState(state_keys, self.specs)
        #: Finalized partitions of windows the watermark has closed.
        self.closed: list[Partition] = []
        self.rows_ingested = 0
        self.rows_late = 0
        self.windows_evicted = 0

    # ------------------------------------------------------------------
    # Ingestion (driven by Stream.append)
    # ------------------------------------------------------------------
    def _ingest(self, part: Partition) -> dict:
        if self.window is None:
            changed = self.delta_state.update(part)
            self.rows_ingested += part.num_rows
            return {"rows": part.num_rows, "late": 0, "evicted": 0,
                    "changed_groups": changed}
        expanded, late = self._expand(part)
        changed = self.delta_state.update(expanded)
        evicted = 0
        times = part.columns[self.window.time_column]
        if part.num_rows:
            fresh = float(np.max(np.asarray(times, dtype=np.float64)))
            self.watermark = max(self.watermark, fresh - self.watermark_delay)
            evicted = self._evict()
        self.rows_ingested += part.num_rows
        self.rows_late += late
        self.windows_evicted += evicted
        return {"rows": part.num_rows, "late": late, "evicted": evicted,
                "changed_groups": changed}

    def _expand(self, part: Partition):
        """Window-assign a batch: replicate rows into their windows,
        drop rows whose window the current watermark already closed.

        The late count is per dropped row->window *assignment*, not
        per row: under a sliding window a row can be late for its
        oldest window yet on time for a newer one, and the count is
        the contributions actually discarded."""
        window = self.window
        needed = list(
            dict.fromkeys(
                self.group_keys
                + [s.column for s in self.specs if s.column != "*"]
            )
        )
        if part.num_rows == 0:
            columns = {WINDOW_COLUMN: np.empty(0, dtype=np.float64)}
            for name in needed:
                columns[name] = part.columns[name]
            return Partition(columns), 0
        times = np.asarray(
            part.columns[window.time_column], dtype=np.float64
        )
        idx, starts = window.assign(times)
        on_time = starts + window.size > self.watermark
        late = int(len(on_time) - np.count_nonzero(on_time))
        if late:
            idx, starts = idx[on_time], starts[on_time]
        columns = {WINDOW_COLUMN: starts}
        for name in needed:
            columns[name] = np.asarray(part.columns[name])[idx]
        return Partition(columns), late

    def _evict(self) -> int:
        state = self.delta_state
        if state.num_groups == 0:
            return 0
        # A window [s, s + size) is closed once the watermark reaches
        # its end: s + size <= watermark.  Late-row filtering in
        # _expand keeps exactly the complement, so no accepted row can
        # ever belong to an evicted window.
        threshold = self.watermark - self.window.size
        closing = state.state.keys[:, 0].astype(np.float64) <= threshold
        if not closing.any():
            return 0
        closed = state.evict_below(0, threshold)
        self.closed.append(closed)
        return closed.num_rows

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    @property
    def keys(self) -> list:
        """The state's key columns (``window_start`` first when
        windowed)."""
        return list(self.delta_state.keys)

    @property
    def num_groups(self) -> int:
        return self.delta_state.num_groups

    @property
    def state_nbytes(self) -> int:
        """Estimated bytes of live aggregate state — the bound on
        ingestion memory when the stream runs ``retain=False``."""
        return self.delta_state.nbytes

    def to_partition(self) -> Partition:
        """The live (open) state finalized as one partition."""
        return self.delta_state.to_partition()

    def to_columns(self) -> dict:
        return dict(self.to_partition().columns)

    def delta(self) -> Partition:
        """Groups changed by the most recent append, finalized — feed
        this to ``STManager.update_st_grid_array`` for incremental
        grid maintenance."""
        return self.delta_state.delta_partition()

    def snapshot_partition(self) -> Partition:
        """Closed windows plus live state as one partition (all groups
        ever finalized, each exactly once)."""
        parts = [p for p in self.closed if p.num_rows] + [self.to_partition()]
        return Partition.concat(parts)

    def recompute_dataframe(self) -> DataFrame:
        """The equivalent *batch* computation over the stream's full
        retained history — what this aggregation maintains
        incrementally.  Only defined for non-windowed aggregations
        (windowed results depend on arrival order through the
        watermark, which a batch plan cannot express)."""
        if self.window is not None:
            raise ValueError(
                "windowed aggregations have no batch-equivalent plan; "
                "compare against a per-batch replay instead"
            )
        return (
            self.stream.view()
            .group_by(*self.group_keys)
            .agg(*self.specs)
        )


class Stream:
    """An ingestion endpoint for record micro-batches (see module
    docstring).  Create via :meth:`Session.stream`."""

    def __init__(self, session, schema, retain: bool = True):
        if not isinstance(schema, Schema):
            schema = Schema(schema)
        self.session = session
        self.schema = schema
        self.retain = retain
        self.source = P.StreamingSource(schema)
        self.aggregations: list[StreamingAggregation] = []
        self.batches_ingested = 0
        self.rows_ingested = 0
        self._last_append_monotonic: float | None = None

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def _coerce(self, data) -> Partition:
        """Coerce a micro-batch (dict of arrays, list of row dicts or
        tuples) to a Partition with the stream schema's dtypes."""
        if isinstance(data, Partition):
            arrays = data.columns
        elif isinstance(data, dict):
            arrays = data
        else:
            rows = list(data)
            if rows and not isinstance(rows[0], dict):
                arrays = {
                    f.name: [row[i] for row in rows]
                    for i, f in enumerate(self.schema.fields)
                }
            else:
                arrays = {
                    f.name: [row[f.name] for row in rows]
                    for f in self.schema.fields
                }
        missing = [f.name for f in self.schema.fields if f.name not in arrays]
        if missing:
            raise ValueError(f"batch is missing columns {missing}")
        columns = {}
        for field in self.schema.fields:
            arr = np.asarray(arrays[field.name])
            if arr.dtype != field.dtype:
                arr = arr.astype(field.dtype)
            columns[field.name] = arr
        return Partition(columns)

    def append(self, data) -> dict:
        """Ingest one micro-batch.

        Coerces ``data`` to the stream schema, retains it on the
        streaming source (when ``retain=True``), and pushes it through
        every registered aggregation.  Returns per-append stats:
        ``rows``, ``late_rows``, ``evicted_windows``,
        ``changed_groups``, ``update_seconds``.
        """
        from repro import obs

        metrics = _stream_metrics()
        now = time.monotonic()
        if self._last_append_monotonic is not None:
            metrics["lag_s"].observe(now - self._last_append_monotonic)
        self._last_append_monotonic = now

        part = self._coerce(data)
        started = time.perf_counter()
        with obs.tracer.span("engine.stream.append") as span:
            if self.retain:
                self.source.append(part)
            late = evicted = changed = 0
            for aggregation in self.aggregations:
                stats = aggregation._ingest(part)
                late += stats["late"]
                evicted += stats["evicted"]
                changed += stats["changed_groups"]
            span.add("rows", part.num_rows)
            span.add("late_rows", late)
        elapsed = time.perf_counter() - started

        self.batches_ingested += 1
        self.rows_ingested += part.num_rows
        metrics["batches"].inc()
        metrics["rows"].inc(part.num_rows)
        if late:
            metrics["late_rows"].inc(late)
        if evicted:
            metrics["evicted"].inc(evicted)
        metrics["groups"].set(
            sum(a.num_groups for a in self.aggregations)
        )
        metrics["update_s"].observe(elapsed)
        return {
            "rows": part.num_rows,
            "late_rows": late,
            "evicted_windows": evicted,
            "changed_groups": changed,
            "update_seconds": elapsed,
        }

    # ------------------------------------------------------------------
    # Consumption
    # ------------------------------------------------------------------
    def view(self) -> DataFrame:
        """A lazy DataFrame over the full retained history.  The
        returned frame is *live*: each execution replays the batches
        ingested so far, one partition per batch."""
        if not self.retain:
            raise ValueError(
                "stream was created with retain=False; history is not "
                "kept, only registered aggregations are maintained"
            )
        return DataFrame(self.session, self.source)

    def aggregate(
        self,
        keys,
        specs,
        window: WindowSpec | None = None,
        watermark_delay: float = 0.0,
    ) -> StreamingAggregation:
        """Register an incrementally maintained aggregation.

        ``keys`` are group-key column names; ``specs`` are
        :class:`~repro.engine.aggregates.AggSpec` (use the ``agg``
        helpers).  Batches appended from now on update it in O(batch);
        batches appended before registration are folded in once here.
        """
        if isinstance(keys, str):
            keys = [keys]
        aggregation = StreamingAggregation(
            self, list(keys), list(specs), window, watermark_delay
        )
        for part in self.source.batches:
            aggregation._ingest(part)
        self.aggregations.append(aggregation)
        return aggregation
