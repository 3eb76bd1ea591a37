"""Incremental streaming ingestion: delta-maintained aggregation.

Production traffic arrives continuously; recomputing group-by state
and grid tensors from scratch on every new slice makes ingestion cost
O(history).  This module makes it O(batch):

- :class:`Stream` (``Session.stream(schema)``) ingests record
  micro-batches.  It keeps no history: each ``append`` is coerced to
  the schema and merged into every registered aggregation, then
  dropped.
- :class:`StreamingAggregation` (``stream.aggregate(...)``) maintains
  group-by state *incrementally*: a :class:`DeltaState` persists the
  batch executor's :class:`~repro.engine.aggregates.ArrayGroupState`
  across batches and merges each new batch's partial aggregates into
  it.  Because the persistent state and the batch group-by run the
  same merge code over the same partition boundaries, the maintained
  result is bit-identical to a batch ``group_by(...).agg(...)`` over
  one partition per appended batch — not approximately equal, equal
  (pinned by ``tests/property/test_property_streaming.py`` through
  ``tests/stream_oracle.py``).  An aggregation sees every batch, so it
  must be registered before the first append.

An append applies whole or not at all: key and aggregated columns are
checked numeric when an aggregation registers, and a batch is cast to
the schema before it reaches any state.  A column that is not 1-D, a
positional row whose width is not the schema's, or a NaN, infinite or
fractional value bound for an integer field, raises ``ValueError``
there, and so does a column the schema does not name.

Per-batch deltas (``StreamingAggregation.delta()``) feed downstream
incremental maintenance — most importantly
``STManager.update_st_grid_array``, which scatters only the touched
(cell, timestep) entries of an existing grid tensor.

Observability: every append is traced (``engine.stream.append`` span)
and metered — ``engine.stream.batches`` / ``rows`` counters, an
``engine.stream.state_groups`` gauge, and two histograms:
``engine.stream.update_seconds`` (time to absorb one batch) and
``engine.stream.batch_lag_seconds`` (gap between consecutive appends).
"""

from __future__ import annotations

import time

import numpy as np

from repro.engine.aggregates import AggSpec, ArrayGroupState
from repro.engine.partition import Partition
from repro.engine.schema import Schema

__all__ = [
    "DeltaState",
    "Stream",
    "StreamingAggregation",
]

_metrics = None


def _stream_metrics():
    """Lazy process-wide metric handles (same pattern as tensor.pool)."""
    global _metrics
    if _metrics is None:
        from repro import obs

        _metrics = {
            "batches": obs.registry.counter("engine.stream.batches"),
            "rows": obs.registry.counter("engine.stream.rows"),
            "groups": obs.registry.gauge("engine.stream.state_groups"),
            "update_s": obs.registry.histogram("engine.stream.update_seconds"),
            "lag_s": obs.registry.histogram("engine.stream.batch_lag_seconds"),
        }
    return _metrics


class DeltaState:
    """Persistent, mergeable group-by state updated one batch at a
    time.

    Wraps the batch executor's :class:`ArrayGroupState` — the *same*
    class, not a reimplementation — so feeding it the micro-batches in
    arrival order performs exactly the partial-merge sequence a batch
    group-by over those partitions performs, making the maintained
    accumulators bit-identical to a full recompute.  The state
    remembers which groups its last merge touched, so a delta costs
    O(touched groups), not O(state), in either of its forms.
    """

    def __init__(self, keys: list, specs: list, key_dtypes: list):
        self.keys = list(keys)
        self.specs = list(specs)
        self.state = ArrayGroupState(self.specs)
        # So a read before the first append has the keys' output dtypes.
        self.state.key_dtypes = [np.dtype(dtype) for dtype in key_dtypes]

    @property
    def num_groups(self) -> int:
        return self.state.num_groups

    def update(self, part: Partition) -> int:
        """Merge one micro-batch; returns the number of distinct
        groups it touched."""
        return self.state.update([part.columns[k] for k in self.keys], part)

    def to_partition(self) -> Partition:
        """The full current state finalized as one partition (same
        layout as the batch group-by's output)."""
        return self.state.to_partition(self.keys)

    def delta_partition(self) -> Partition:
        """Only the groups the last ``update`` touched, finalized —
        the rows a downstream incremental consumer must re-apply."""
        return self.state.touched().to_partition(self.keys)


class StreamingAggregation:
    """A continuously maintained ``group_by(...).agg(...)`` over a
    :class:`Stream`.

    State is keyed by the group keys and grows with the number of
    distinct groups, not with the rows ingested.  ``to_partition()``
    equals ``group_by(*keys).agg(*specs)`` over the appended batches,
    one partition per batch, bit for bit.
    """

    def __init__(self, schema: Schema, keys: list, specs: list):
        for spec in specs:
            if not isinstance(spec, AggSpec):
                raise TypeError(f"expected AggSpec, got {spec!r}")
        # Checked here, against the schema every batch is cast to, so
        # no append can fail half-way through the merges.
        merged = [spec.column for spec in specs if spec.kind != "count"]
        for name in [*keys, *merged]:
            dtype = np.dtype(schema[name].dtype)
            if dtype.kind in "OUS":
                raise TypeError(
                    "streaming aggregation requires numeric group keys and "
                    f"aggregated columns; column {name!r} has dtype {dtype}"
                )
        self.group_keys = list(keys)
        self.specs = list(specs)
        self.delta_state = DeltaState(
            self.group_keys, self.specs, [schema[k].dtype for k in keys]
        )
        self.rows_ingested = 0

    # ------------------------------------------------------------------
    # Ingestion (driven by Stream.append)
    # ------------------------------------------------------------------
    def _ingest(self, part: Partition) -> int:
        """Merge one micro-batch; returns the groups it touched."""
        changed = self.delta_state.update(part)
        self.rows_ingested += part.num_rows
        return changed

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    @property
    def num_groups(self) -> int:
        return self.delta_state.num_groups

    def to_partition(self) -> Partition:
        """The current state finalized as one partition."""
        return self.delta_state.to_partition()

    def to_columns(self) -> dict:
        return dict(self.to_partition().columns)

    def delta(self) -> Partition:
        """Groups changed by the most recent append, finalized — feed
        this to ``STManager.update_st_grid_array`` for incremental
        grid maintenance."""
        return self.delta_state.delta_partition()


class Stream:
    """An ingestion endpoint for record micro-batches (see module
    docstring).  Create via :meth:`Session.stream`."""

    def __init__(self, schema):
        if not isinstance(schema, Schema):
            schema = Schema(schema)
        self.schema = schema
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
            arrays = given = data.columns
        elif isinstance(data, dict):
            arrays = given = data
        else:
            given = ()
            rows = list(data)
            if rows and not isinstance(rows[0], dict):
                width = len(self.schema.fields)
                for i, row in enumerate(rows):
                    if len(row) != width:
                        raise ValueError(
                            f"row {i} has {len(row)} values; the schema "
                            f"has {width} fields"
                        )
                arrays = {
                    f.name: [row[i] for row in rows]
                    for i, f in enumerate(self.schema.fields)
                }
            else:
                given = set().union(*rows)
                arrays = {
                    f.name: [row[f.name] for row in rows]
                    for f in self.schema.fields
                }
        missing = [f.name for f in self.schema.fields if f.name not in arrays]
        if missing:
            raise ValueError(f"batch is missing columns {missing}")
        extra = sorted(set(given).difference(self.schema.names))
        if extra:
            raise ValueError(f"batch has columns {extra} the schema does not name")
        columns = {}
        for field in self.schema.fields:
            arr = np.asarray(arrays[field.name])
            if arr.ndim != 1:
                raise ValueError(
                    f"column {field.name!r}: expected a 1-D array of values, "
                    f"got {arr.ndim}-D"
                )
            if arr.dtype != field.dtype:
                dtype = np.dtype(field.dtype)
                try:
                    with np.errstate(invalid="raise"):
                        cast = arr.astype(dtype)
                except FloatingPointError:
                    raise ValueError(
                        f"column {field.name!r}: NaN, infinite or out-of-range "
                        f"values cannot be cast to {dtype}"
                    ) from None
                if arr.dtype.kind == "f" and dtype.kind in "iu" and (cast != arr).any():
                    raise ValueError(
                        f"column {field.name!r}: fractional values cannot be "
                        f"cast to {dtype}"
                    )
                arr = cast
            columns[field.name] = arr
        return Partition(columns)

    def append(self, data) -> dict:
        """Ingest one micro-batch.

        Coerces ``data`` to the stream schema and pushes it through
        every registered aggregation.  Returns per-append stats:
        ``rows``, ``changed_groups``, ``update_seconds``.  A batch the
        schema rejects raises before anything — aggregations,
        counters — has changed.
        """
        from repro import obs

        part = self._coerce(data)
        metrics = _stream_metrics()
        now = time.monotonic()
        if self._last_append_monotonic is not None:
            metrics["lag_s"].observe(now - self._last_append_monotonic)
        self._last_append_monotonic = now

        started = time.perf_counter()
        with obs.tracer.span("engine.stream.append") as span:
            changed = 0
            for aggregation in self.aggregations:
                changed += aggregation._ingest(part)
            span.add("rows", part.num_rows)
        elapsed = time.perf_counter() - started

        self.batches_ingested += 1
        self.rows_ingested += part.num_rows
        metrics["batches"].inc()
        metrics["rows"].inc(part.num_rows)
        metrics["groups"].set(
            sum(a.num_groups for a in self.aggregations)
        )
        metrics["update_s"].observe(elapsed)
        return {
            "rows": part.num_rows,
            "changed_groups": changed,
            "update_seconds": elapsed,
        }

    # ------------------------------------------------------------------
    # Consumption
    # ------------------------------------------------------------------
    def aggregate(self, keys, specs) -> StreamingAggregation:
        """Register an incrementally maintained aggregation.

        ``keys`` are group-key column names; ``specs`` are
        :class:`~repro.engine.aggregates.AggSpec` (use the ``agg``
        helpers).  Every batch appended from now on updates it in
        O(batch).  The stream keeps no history, so registering after
        the first append raises ``ValueError``: the aggregation would
        miss the earlier batches.  A key or aggregated column whose
        schema dtype is not numeric raises ``TypeError``.
        """
        if self.batches_ingested:
            raise ValueError(
                "register aggregations before the first append: the "
                "stream keeps no history, so an aggregation registered "
                f"now would miss the {self.batches_ingested} batch(es) "
                "already ingested"
            )
        if isinstance(keys, str):
            keys = [keys]
        aggregation = StreamingAggregation(self.schema, list(keys), list(specs))
        self.aggregations.append(aggregation)
        return aggregation
