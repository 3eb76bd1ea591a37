"""sparklite — a lazy, partitioned, columnar DataFrame engine.

Substitutes Apache Spark for the preprocessing module.  The programming
model mirrors PySpark:

- a :class:`Session` creates DataFrames from rows, column dicts, or CSV;
- a :class:`DataFrame` is a *lazy logical plan*; transformations
  (``select``, ``filter``, ``with_column``, ``group_by().agg``,
  ``union``) build the plan;
- actions (``collect``, ``count``, ``to_columns``, ``show``) execute it.

Execution is partition-at-a-time: narrow operator chains are fused and
stream one partition through the whole chain before the next is
touched, so the working set is O(partition + result), not O(dataset) —
the property the paper's Figure 8 attributes to Spark/Sedona.  A
:class:`repro.utils.memory.MemoryMeter` can be attached to observe (or
cap) that working set.

Before execution, plans pass through a rule-based logical optimizer
(:mod:`repro.engine.optimizer`, default on; disable per session with
``Session(optimize=False)`` or per action with
``df.collect(optimize=False)``).  The rules:

- **Column pruning** — every operator is asked for only the columns
  its ancestors actually read; sources get a projection inserted above
  them, wide ``Project``/``WithColumn`` chains shed unused outputs.
- **Predicate pushdown** — filters move below ``Project`` /
  ``WithColumn`` (by substituting the column definitions into the
  predicate, never duplicating UDFs), below ``Drop``/``Union``, and
  into ``GroupByAgg`` when key-only.
- **Fusion** — adjacent ``Filter`` nodes AND-combine;
  ``Project∘Project`` collapses via substitution; ``WithColumn``
  chains fuse into one :class:`repro.engine.plan.WithColumns`.
- **Limit pushdown** — ``Limit`` fuses with ``Limit`` and moves below
  row-count-preserving narrow ops.

``Cache`` and ``MapPartitions`` are optimization barriers: nothing is
pushed through either (the first holds materialized state under its
full schema, the second is schema-opaque).  The plan *beneath* a
``Cache`` is the optimized, compiled plan of the DataFrame
``cache()`` was called on.  Inspect what the optimizer did with
``df.explain(optimized=True)``, which renders the plan as written and
the rewritten plan.

After the logical rewrite, a physical-planning pass
(:func:`repro.engine.compile.compile_stages`) fuses each run of narrow
operators into one compiled stage; :mod:`repro.engine.compile` is the
one evaluator for every narrow operator the executor runs (a narrow
node the pass never saw — ``optimize=False`` — runs as a one-step
stage).  ``Expr.evaluate`` remains as the public
tree-walker for evaluating a single expression on a partition.

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
