"""The engine entry point (SparkSession analogue)."""

from __future__ import annotations

import numpy as np

from repro.engine import plan as P
from repro.engine.dataframe import DataFrame
from repro.engine.io_csv import csv_partition_factories, infer_csv_schema
from repro.engine.partition import Partition
from repro.engine.schema import Field, Schema
from repro.utils.memory import MemoryMeter
from repro.utils.validation import check_positive


class Session:
    """Creates DataFrames and owns execution configuration.

    Parameters
    ----------
    default_parallelism:
        How many partitions ``create_dataframe`` splits local data into.
    meter:
        Optional :class:`MemoryMeter` observing the engine working set
        (used by the Figure 8 bench).  A meter with ``cap_bytes`` is the
        engine's memory cap: a query it refuses raises
        :class:`~repro.utils.memory.MemoryBudgetExceeded` and leaves the
        meter as it found it.
    """

    def __init__(
        self,
        default_parallelism: int = 4,
        meter: MemoryMeter | None = None,
    ):
        check_positive(default_parallelism, "default_parallelism")
        self.default_parallelism = default_parallelism
        self.meter = meter
        # Most recent metered execution (set by DataFrame actions when
        # repro.obs is enabled): the executed plan, its PlanStats, the
        # query id the session assigned, and the finished query span.
        self.last_plan = None
        self.last_plan_stats = None
        self.last_query_id = None
        self.last_query_span = None
        self._query_seq = 0

    def next_query_id(self) -> int:
        """Assign the next query id (1-based, unique per session).
        Every metered execution gets one; it tags the ``engine.query``
        span."""
        self._query_seq += 1
        return self._query_seq

    # ------------------------------------------------------------------
    # DataFrame creation
    # ------------------------------------------------------------------
    def create_dataframe(self, data, columns=None, num_partitions=None) -> DataFrame:
        """Create a DataFrame from local data.

        ``data`` may be a dict of equal-length arrays/lists, or a list
        of tuples (requires ``columns``) or dicts.
        """
        n_parts = num_partitions or self.default_parallelism
        if isinstance(data, dict):
            names = list(data)
            arrays = {k: np.asarray(v) for k, v in data.items()}
            total = len(next(iter(arrays.values()))) if arrays else 0
        else:
            data = list(data)
            if not data:
                raise ValueError("cannot infer schema from empty data")
            if isinstance(data[0], dict):
                names = columns or list(data[0])
            else:
                if columns is None:
                    raise ValueError("tuple rows need explicit columns")
                names = list(columns)
            whole = Partition.from_rows(data, names)
            arrays = whole.columns
            total = whole.num_rows

        bounds = np.linspace(0, total, n_parts + 1).astype(int)
        factories = []
        for start, stop in zip(bounds[:-1], bounds[1:]):
            if stop <= start:
                continue
            chunk = {
                name: arr[start:stop] for name, arr in arrays.items()
            }
            factories.append(lambda c=chunk: Partition(c))
        schema = Schema(
            [Field(name, arrays[name].dtype) for name in names]
        )
        if not factories:
            factories = [lambda s=schema: Partition.empty(s)]
        return DataFrame(self, P.Source(factories, schema))

    def from_partitions(self, factories, schema: Schema) -> DataFrame:
        """Create a DataFrame from deferred partition factories (the
        out-of-core path: partitions are built only during execution)."""
        return DataFrame(self, P.Source(list(factories), schema))

    def read_csv(
        self,
        path: str,
        schema: Schema | None = None,
        rows_per_partition: int = 100_000,
        header: bool = True,
    ) -> DataFrame:
        """Scan a CSV file as a partitioned DataFrame.

        The file is split into row ranges; each partition parses its
        range lazily during execution, so the whole file is never
        resident at once.
        """
        if schema is None:
            schema = infer_csv_schema(path, header=header)
        factories = csv_partition_factories(
            path, schema, rows_per_partition=rows_per_partition, header=header
        )
        return DataFrame(self, P.Source(factories, schema))

    def stream(self, schema, retain: bool = False):
        """Open an append-only ingestion stream (see
        :mod:`repro.engine.streaming`).

        ``schema`` is a :class:`Schema` or a list of ``(name, dtype)``
        pairs; every appended micro-batch is coerced to it.  A stream
        keeps no history: only its registered incremental aggregations
        hold state, so ingestion memory is bounded by aggregate state
        alone.  ``retain=True`` raises ``ValueError``; the keyword
        stays only for callers that spell out ``retain=False``.
        """
        from repro.engine.streaming import Stream

        if retain:
            raise ValueError(
                "a stream keeps no history (retain=True is not supported); "
                "register aggregations before the first append"
            )
        return Stream(schema)
