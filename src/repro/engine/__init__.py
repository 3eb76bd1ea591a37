"""sparklite — a lazy, partitioned, columnar DataFrame engine.

Substitutes Apache Spark for the preprocessing module.  The programming
model mirrors PySpark:

- a :class:`Session` creates DataFrames from rows, column dicts, or CSV;
- a :class:`DataFrame` is a *lazy logical plan*; transformations
  (``select``, ``filter``, ``with_column``, ``group_by().agg``,
  ``map_partitions``, ``cache``) build the plan;
- actions (``collect``, ``count``, ``to_columns``, ``show``) execute it.

Execution is partition-at-a-time: narrow operators stream one
partition through the whole chain before the next is touched, so the
working set is O(partition + result), not O(dataset) — the property
the paper's Figure 8 attributes to Spark/Sedona.  A
:class:`repro.utils.memory.MemoryMeter` can be attached to observe (or
cap) that working set.

Before execution, every plan passes through a rule-based logical
optimizer (:mod:`repro.engine.optimizer`) with two rewrites:

- **Column pruning** — every operator is asked for only the columns
  its ancestors actually read; sources and filter inputs get a
  narrowing projection, wide ``Project``/``WithColumn`` chains shed
  unused outputs.
- **Fusion** — ``WithColumn`` chains fuse into one
  :class:`repro.engine.plan.WithColumns`.

``Cache`` and ``MapPartitions`` are optimization barriers (the first
holds materialized state under its full schema, the second is
schema-opaque).  The plan *beneath* a ``Cache`` is the optimized plan
of the DataFrame ``cache()`` was called on.  Inspect what the
optimizer did with ``df.explain(optimized=True)``, which renders the
plan as written and the rewritten plan.

The executor runs each narrow operator node by node with
``Expr.evaluate``; a filter computes its selection once and gathers
every column with it.

The ops whose state is O(dataset), not O(partition): ``cache`` (keeps
results resident) and ``group_by().agg`` (one vectorized state for
every key type; non-numeric keys are dictionary-coded).  Both report
through the attached ``MemoryMeter``.  The group-by emits one
partition in ascending key order for numeric keys, which is the order
the spatiotemporal converter requires; there is no sort operator.
``cache`` keeps what it holds in memory, on the meter; a meter with
``cap_bytes`` refuses an allocation over the cap with
:class:`repro.utils.memory.MemoryBudgetExceeded` and leaves the cache
cold.

Every action is metered by :mod:`repro.obs` (on by default, one
switch, per-partition cost only): per-operator rows / partitions /
time / peak partition bytes land in ``repro.obs.registry`` and on
``session.last_plan_stats``, and ``df.explain(analyze=True)`` runs
the plan and renders the tree annotated with the live stats.
"""

from repro.engine.session import Session
from repro.engine.dataframe import DataFrame
from repro.engine.expressions import col, lit, udf
from repro.engine.schema import Schema, Field
from repro.engine.partition import Partition
from repro.engine import aggregates as agg

__all__ = [
    "Session",
    "DataFrame",
    "col",
    "lit",
    "udf",
    "Schema",
    "Field",
    "Partition",
    "agg",
]
