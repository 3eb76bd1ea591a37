"""Logical plan nodes.

A DataFrame is a tree of these nodes; the executor walks the tree and
streams partitions through it.  Nodes are immutable descriptions —
nothing here touches data.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.expressions import Expr
from repro.engine.schema import Schema


class PlanNode:
    """Base class for logical plan nodes."""

    children: tuple = ()

    def describe(self, indent: int = 0) -> str:
        """Readable plan tree (``DataFrame.explain`` output)."""
        pad = "  " * indent
        lines = [f"{pad}{self._label()}"]
        for child in self.children:
            lines.append(child.describe(indent + 1))
        return "\n".join(lines)

    def _label(self) -> str:
        return self.__class__.__name__


@dataclass
class Source(PlanNode):
    """Leaf: a list of zero-arg callables, each producing a Partition.

    Deferring partition construction behind callables is what lets CSV
    scans and generators stay out-of-core: a partition exists only
    while it flows through the operator chain.
    """

    partition_factories: list
    schema: Schema
    children: tuple = ()

    def _label(self):
        return f"Source[{len(self.partition_factories)} partitions]"


@dataclass
class Project(PlanNode):
    child: PlanNode
    exprs: list  # list of (name, Expr)

    def __post_init__(self):
        self.children = (self.child,)

    def _label(self):
        return f"Project[{', '.join(name for name, _ in self.exprs)}]"


@dataclass
class Filter(PlanNode):
    child: PlanNode
    predicate: Expr

    def __post_init__(self):
        self.children = (self.child,)

    def _label(self):
        return f"Filter[{self.predicate.name}]"


@dataclass
class WithColumn(PlanNode):
    child: PlanNode
    name: str
    expr: Expr

    def __post_init__(self):
        self.children = (self.child,)

    @property
    def items(self) -> list:
        """The one ``(name, Expr)`` step, in :class:`WithColumns` form."""
        return [(self.name, self.expr)]

    def _label(self):
        return f"WithColumn[{self.name}]"


@dataclass
class WithColumns(PlanNode):
    """Several :class:`WithColumn` steps fused into one operator.

    Produced by the optimizer (never by the DataFrame API): the items
    are evaluated sequentially against the growing partition, so a
    chain costs one operator dispatch per partition instead of one per
    added column.
    """

    child: PlanNode
    items: list  # list of (name, Expr), applied in order

    def __post_init__(self):
        self.children = (self.child,)

    def _label(self):
        return f"WithColumns[{', '.join(name for name, _ in self.items)}]"


@dataclass
class Drop(PlanNode):
    child: PlanNode
    names: list

    def __post_init__(self):
        self.children = (self.child,)

    def _label(self):
        return f"Drop[{', '.join(self.names)}]"


@dataclass
class Limit(PlanNode):
    child: PlanNode
    n: int

    def __post_init__(self):
        self.children = (self.child,)

    def _label(self):
        return f"Limit[{self.n}]"


@dataclass
class GroupByAgg(PlanNode):
    child: PlanNode
    keys: list
    aggs: list  # list of AggSpec

    def __post_init__(self):
        self.children = (self.child,)

    def _label(self):
        outs = ", ".join(a.out_name for a in self.aggs)
        return f"GroupByAgg[keys={self.keys}, aggs=({outs})]"


@dataclass
class MapPartitions(PlanNode):
    """Apply ``fn(Partition) -> Partition`` to every partition."""

    child: PlanNode
    fn: object
    label: str = "map_partitions"

    def __post_init__(self):
        self.children = (self.child,)

    def _label(self):
        return f"MapPartitions[{self.label}]"


@dataclass
class Cache(PlanNode):
    """Materialize the child's partitions on first execution and
    replay them on later executions (Spark's ``persist``).

    Trades memory (the cached partitions stay resident) for skipping
    upstream recomputation — worthwhile when a DataFrame is iterated
    once per training epoch.
    """

    child: PlanNode

    def __post_init__(self):
        self.children = (self.child,)
        self.materialized: list | None = None

    def _label(self):
        state = "hot" if self.materialized is not None else "cold"
        return f"Cache[{state}]"
