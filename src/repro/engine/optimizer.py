"""Rule-based logical plan optimizer.

Rewrites a logical plan before execution; plans are trees of immutable
descriptions, so every rule builds new nodes and never mutates inputs.
One top-down pass applies the two rewrites the paper pipelines fire:

- **Column pruning** — the pass computes the columns each subtree must
  produce, drops computed columns nobody reads, narrows ``GroupByAgg``
  inputs to keys + referenced values, and wraps ``Source`` scans — and
  the input of a ``Filter``, which gathers every column it is handed —
  in a narrowing projection.
- **WithColumn-chain fusion** — consecutive ``WithColumn`` nodes fuse
  into a single :class:`~repro.engine.plan.WithColumns` operator, so a
  chain costs one operator dispatch per partition instead of one per
  added column.

Every other node stays where it was written: filters, projections and
limits are not moved or merged.

Two node kinds are barriers: ``Cache`` (its node instance is preserved,
so materialized partitions survive re-execution; the plan beneath it
was optimized when ``DataFrame.cache()`` built the node) and
``MapPartitions`` (the function is schema-opaque, so pruning restarts
below it with the full schema).
"""

from __future__ import annotations

from repro.engine import plan as P
from repro.engine.expressions import Column


def optimize(node: P.PlanNode) -> P.PlanNode:
    """Return an optimized, semantically equivalent logical plan."""
    return _prune(node, None)


def _ordered(names, preference: list | None) -> list:
    """Stable, duplicate-free column list; ``preference`` fixes order."""
    names = set(names)
    if preference is not None:
        out = [c for c in preference if c in names]
        rest = sorted(names - set(out))
        return out + rest
    return sorted(names)


# ----------------------------------------------------------------------
# Static schema
# ----------------------------------------------------------------------
#: Nodes whose output carries their (first) input's column names.
_KEEPS_NAMES = (
    P.Filter, P.Limit, P.Cache, P.MapPartitions,
)


def static_columns(node: P.PlanNode, strict: bool = True) -> list | None:
    """Output column names, derived from the plan alone.  ``strict`` is
    the optimizer's view: ``None`` at and above a schema-opaque
    ``MapPartitions``.  ``strict=False`` is ``DataFrame.columns``' best
    effort: the function is taken to keep its input's names."""
    if isinstance(node, P.Source):
        return list(node.schema.names)
    if isinstance(node, P.Project):
        return [name for name, _ in node.exprs]
    if isinstance(node, P.GroupByAgg):
        return list(node.keys) + [a.out_name for a in node.aggs]
    if isinstance(node, P.MapPartitions) and strict:
        return None
    if not isinstance(node, (P.WithColumn, P.WithColumns, P.Drop, *_KEEPS_NAMES)):
        raise TypeError(f"unknown plan node {type(node).__name__}")
    names = static_columns(node.children[0], strict)
    if names is None:
        return None
    if isinstance(node, P.Drop):
        dropped = set(node.names)
        return [n for n in names if n not in dropped]
    if isinstance(node, (P.WithColumn, P.WithColumns)):
        for name, _ in node.items:
            if name not in names:
                names = names + [name]
    return names


# ----------------------------------------------------------------------
# Top-down column pruning
# ----------------------------------------------------------------------
def _prune(node: P.PlanNode, required: list | None) -> P.PlanNode:
    """Prune ``node`` so it produces at least ``required`` columns
    (``None`` = every column of its logical schema).  Subtrees may
    produce a superset of ``required`` (e.g. a filter's predicate
    columns); enclosing projections cut the excess."""
    if isinstance(node, P.Cache):
        return node  # barrier: holds its full schema; keep the instance

    if isinstance(node, P.Source):
        if required is None:
            return node
        names = list(node.schema.names)
        needed = [c for c in names if c in set(required)]
        if needed and len(needed) < len(names):
            return P.Project(node, [(c, Column(c)) for c in needed])
        return node

    if isinstance(node, P.Project):
        if required is None:
            kept = list(node.exprs)
        else:
            req = set(required)
            kept = [(n, e) for n, e in node.exprs if n in req]
            if not kept:  # keep the schema non-degenerate
                kept = list(node.exprs)[:1]
        child_refs: set = set()
        for _, expr in kept:
            child_refs |= expr.references()
        child = node.child
        if not isinstance(child, P.Source):
            # (A scan right below needs no narrowing: this projection
            # is one.)
            child = _prune(child, _ordered(child_refs, static_columns(child)))
        return P.Project(child, kept)

    if isinstance(node, P.Filter):
        if required is None:
            return P.Filter(_prune(node.child, None), node.predicate)
        child_req = _ordered(
            set(required) | node.predicate.references(),
            static_columns(node.child),
        )
        child = _prune(node.child, child_req)
        produced = static_columns(child)
        if produced is not None and len(produced) > len(child_req):
            # The filter gathers every column it is handed: hand it
            # only the ones above it or its predicate reads.
            child = P.Project(child, [(c, Column(c)) for c in child_req])
        return P.Filter(child, node.predicate)

    if isinstance(node, (P.WithColumn, P.WithColumns)):
        # Fusion: the whole run of WithColumn(s) nodes becomes one
        # WithColumns, its items applied in the order written.
        items: list = []
        child = node
        while isinstance(child, (P.WithColumn, P.WithColumns)):
            items[:0] = child.items
            child = child.child
        if required is None:
            return P.WithColumns(_prune(child, None), items)
        req = set(required)
        kept = []
        for name, expr in reversed(items):
            if name in req:
                req.discard(name)
                req |= expr.references()
                kept.append((name, expr))
        kept.reverse()
        child = _prune(child, _ordered(req, static_columns(child)))
        if not kept:
            return child
        return P.WithColumns(child, kept)

    if isinstance(node, P.Drop):
        child_req = static_columns(node) if required is None else required
        return P.Drop(_prune(node.child, child_req), node.names)

    if isinstance(node, P.Limit):
        return P.Limit(_prune(node.child, required), node.n)

    if isinstance(node, P.MapPartitions):
        # Opaque function: it may read (or emit) anything.
        return P.MapPartitions(_prune(node.child, None), node.fn, node.label)

    if isinstance(node, P.GroupByAgg):
        if required is None:
            kept_aggs = list(node.aggs)
        else:
            req = set(required)
            kept_aggs = [a for a in node.aggs if a.out_name in req]
            if not kept_aggs:
                kept_aggs = list(node.aggs)[:1]
        child_refs = set(node.keys) | {
            a.column for a in kept_aggs if a.column != "*"
        }
        child_req = _ordered(child_refs, static_columns(node.child))
        return P.GroupByAgg(
            _prune(node.child, child_req), node.keys, kept_aggs
        )

    raise TypeError(f"unknown plan node {type(node).__name__}")
