"""Reference evaluator for narrow logical plans.

Walks a DataFrame's *logical* plan exactly as written — no optimizer —
and evaluates every expression with the tree-walking ``Expr.evaluate``,
building each output ``Partition`` from whole columns (boolean masks,
``with_column``, dict filtering).  The
executor runs the optimized plan with its own operator code (one
selection vector per filter, partitions built without re-validation),
so this is the reference the narrow-operator tests hold it to, bit for
bit.
"""

from __future__ import annotations

import numpy as np

from repro.engine import plan as P
from repro.engine.partition import Partition


def oracle_partitions(node: P.PlanNode) -> list:
    """Output partitions of a plan built from a ``Source`` and narrow
    operators only (one partition out per partition in)."""
    if isinstance(node, P.Source):
        return [factory() for factory in node.partition_factories]
    parts = oracle_partitions(node.child)
    if isinstance(node, P.Filter):
        out = []
        for part in parts:
            keep = np.asarray(node.predicate.evaluate(part), dtype=bool)
            out.append(
                Partition({name: arr[keep] for name, arr in part.columns.items()})
            )
        return out
    if isinstance(node, P.Project):
        return [
            Partition({name: expr.evaluate(part) for name, expr in node.exprs})
            for part in parts
        ]
    if isinstance(node, P.WithColumn):
        return [
            part.with_column(node.name, node.expr.evaluate(part))
            for part in parts
        ]
    if isinstance(node, P.Drop):
        return [
            Partition(
                {n: a for n, a in part.columns.items() if n not in node.names}
            )
            for part in parts
        ]
    raise TypeError(f"oracle cannot evaluate {type(node).__name__}")


def oracle_columns(df) -> dict:
    """``df.to_columns()`` as the oracle computes it."""
    return dict(Partition.concat(oracle_partitions(df.plan)).columns)


def oracle_sorted(columns: dict, keys) -> dict:
    """``columns`` reordered by a stable in-memory ``lexsort`` over
    ``keys``, first key most significant (NaN last) — the reference
    for any output claimed to be in key order."""
    order = np.lexsort([columns[k] for k in reversed(keys)])
    return {name: arr[order] for name, arr in columns.items()}
