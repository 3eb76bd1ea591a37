"""The lazy DataFrame API."""

from __future__ import annotations

import numpy as np

from repro.engine import plan as P
from repro.engine.aggregates import AggSpec
from repro.engine.executor import iter_partitions, plan_column_names
from repro.engine.expressions import Column, Expr
from repro.engine.optimizer import optimize
from repro.engine.partition import Partition
from repro.utils.validation import check_non_negative


class DataFrame:
    """An immutable, lazy, partitioned table.

    Transformations return new DataFrames without running anything;
    actions (:meth:`collect`, :meth:`count`, :meth:`to_columns`, ...)
    execute the plan partition-at-a-time.
    """

    def __init__(self, session, plan_node: P.PlanNode):
        self.session = session
        self.plan = plan_node
        self._optimized_plan: P.PlanNode | None = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def columns(self) -> list[str]:
        """Output column names (derived statically from the plan)."""
        return plan_column_names(self.plan)

    def explain(self, optimized: bool = False, analyze: bool = False) -> str:
        """Return the logical plan as an indented tree.

        With ``optimized=True``, render both the plan as written and
        the plan after the rule-based optimizer has rewritten it.

        With ``analyze=True``, *execute* the plan (as the session
        would run it, optimizer included) and render the executed tree
        annotated with live per-operator statistics — rows in/out,
        partitions, cumulative wall time, the largest partition each
        operator emitted, and for narrow operators the pure compute
        time and rows/sec (Spark's ``EXPLAIN ANALYZE``)."""
        if analyze:
            from repro.obs import PlanStats

            plan = self._execution_plan()
            stats = PlanStats()
            for _ in self._run(plan, stats):
                pass
            stats.flush_to_registry(plan)
            return "== Analyzed Plan ==\n" + stats.render(plan)
        if not optimized:
            return self.plan.describe()
        return (
            "== Logical Plan ==\n"
            + self.plan.describe()
            + "\n== Optimized Plan ==\n"
            + self._execution_plan().describe()
        )

    def __repr__(self):
        return f"DataFrame[{', '.join(self.columns)}]"

    # ------------------------------------------------------------------
    # Transformations (lazy)
    # ------------------------------------------------------------------
    def _wrap(self, node: P.PlanNode) -> "DataFrame":
        return DataFrame(self.session, node)

    def select(self, *exprs) -> "DataFrame":
        """Project columns.  Accepts names or expressions (use
        ``.alias`` on expressions to name outputs)."""
        pairs = []
        for expr in exprs:
            if isinstance(expr, str):
                pairs.append((expr, Column(expr)))
            elif isinstance(expr, Expr):
                pairs.append((expr.name, expr))
            else:
                raise TypeError(f"cannot select {expr!r}")
        return self._wrap(P.Project(self.plan, pairs))

    def filter(self, predicate: Expr) -> "DataFrame":
        """Keep rows where the predicate evaluates truthy."""
        return self._wrap(P.Filter(self.plan, predicate))

    where = filter

    def with_column(self, name: str, expr: Expr) -> "DataFrame":
        """Add (or replace) a column computed from an expression."""
        return self._wrap(P.WithColumn(self.plan, name, expr))

    def drop(self, *names) -> "DataFrame":
        return self._wrap(P.Drop(self.plan, list(names)))

    def limit(self, n: int) -> "DataFrame":
        """The first ``n`` rows; ``n`` must be a non-negative integer."""
        if not isinstance(n, (int, np.integer)):
            raise ValueError(f"limit must be an integer, got {n!r}")
        check_non_negative(n, "limit")
        return self._wrap(P.Limit(self.plan, int(n)))

    def group_by(self, *keys) -> "GroupedDataFrame":
        """Start a grouped aggregation."""
        return GroupedDataFrame(self, [str(k) for k in keys])

    def map_partitions(self, fn, label: str = "map_partitions") -> "DataFrame":
        """Apply ``fn(Partition) -> Partition`` to each partition."""
        return self._wrap(P.MapPartitions(self.plan, fn, label))

    def cache(self) -> "DataFrame":
        """Materialize results on first execution and replay them on
        later executions (Spark ``persist`` semantics) — skips
        upstream recomputation when the DataFrame is iterated
        repeatedly (e.g. once per training epoch), at the cost of
        keeping the partitions resident for as long as a DataFrame
        built on the cache is alive.

        What sits beneath the cache is the optimized plan this
        DataFrame would execute, so the cold pass costs what the
        uncached action does; the cache holds this DataFrame's full
        schema, and pruning above it stops at it."""
        return self._wrap(P.Cache(self._execution_plan()))

    # ------------------------------------------------------------------
    # Actions (eager)
    # ------------------------------------------------------------------
    def _execution_plan(self) -> P.PlanNode:
        """The plan actually executed: the optimized plan, memoized per
        DataFrame (plans are immutable, so every action runs the same
        tree)."""
        if self._optimized_plan is None:
            self._optimized_plan = optimize(self.plan)
        return self._optimized_plan

    def iter_partitions(self):
        """Stream result partitions (the out-of-core access path used
        by the DFtoTorch converter).

        When the observability layer is enabled (the default), the run
        is metered: per-operator stats land in ``repro.obs.registry``
        under ``engine.op.<Operator>.*`` and the most recent run's
        :class:`~repro.obs.PlanStats` is kept on
        ``session.last_plan_stats``.  Metering reads partition sizes
        and clocks only — results are identical either way."""
        from repro import obs

        plan = self._execution_plan()
        if not obs.enabled():
            return self._run(plan, None)
        return self._observed_partitions(plan)

    def _run(self, plan: P.PlanNode, stats):
        return iter_partitions(plan, meter=self.session.meter, stats=stats)

    def _observed_partitions(self, plan: P.PlanNode):
        from repro import obs
        from repro.obs import PlanStats

        session = self.session
        stats = PlanStats()
        query_id = session.next_query_id()
        session.last_plan_stats = stats
        session.last_plan = plan
        session.last_query_id = query_id
        obs.registry.counter("engine.queries").inc()
        # The query span stays open on this thread's stack while the
        # consumer pulls partitions, so every span opened during
        # execution (a map_partitions body's) nests under it: one
        # connected tree per query.
        span = obs.tracer.start_span("engine.query")
        span.set("query_id", query_id)
        try:
            yield from self._run(plan, stats)
        finally:
            # Flush even when the consumer stops early (limit / take):
            # whatever was pulled is what the registry should see.
            stats.flush_to_registry(plan)
            obs.tracer.end_span(span)
            session.last_query_span = span

    def collect(self) -> list[dict]:
        """Materialize all rows as dicts (test/debug path)."""
        rows = []
        for part in self.iter_partitions():
            rows.extend(part.rows())
        return rows

    def count(self) -> int:
        """Number of rows."""
        return sum(part.num_rows for part in self.iter_partitions())

    def num_partitions(self) -> int:
        return sum(1 for _ in self.iter_partitions())

    def to_columns(self) -> dict:
        """Materialize the result as {name: full numpy array}."""
        parts = list(self.iter_partitions())
        if not parts:
            return {name: np.empty(0) for name in self.columns}
        whole = Partition.concat(parts)
        return dict(whole.columns)

    def take(self, n: int) -> list[dict]:
        return self.limit(n).collect()

    def show(self, n: int = 10) -> str:
        """Format the first ``n`` rows as an aligned text table."""
        rows = self.take(n)
        names = self.columns
        widths = {
            name: max(len(name), *(len(_fmt(r[name])) for r in rows))
            if rows
            else len(name)
            for name in names
        }
        header = " | ".join(name.ljust(widths[name]) for name in names)
        sep = "-+-".join("-" * widths[name] for name in names)
        body = [
            " | ".join(_fmt(r[name]).ljust(widths[name]) for name in names)
            for r in rows
        ]
        return "\n".join([header, sep, *body])


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return f"{value:.6g}"
    return str(value)


class GroupedDataFrame:
    """Intermediate handle produced by :meth:`DataFrame.group_by`."""

    def __init__(self, df: DataFrame, keys: list[str]):
        if not keys:
            raise ValueError("group_by needs at least one key")
        self._df = df
        self._keys = keys

    def agg(self, *specs: AggSpec) -> DataFrame:
        """Apply aggregate specs (see :mod:`repro.engine.aggregates`)."""
        if not specs:
            raise ValueError("agg needs at least one aggregate")
        return self._df._wrap(
            P.GroupByAgg(self._df.plan, self._keys, list(specs))
        )
