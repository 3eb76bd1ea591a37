"""Rule-based logical plan optimizer.

Rewrites a logical plan before execution; plans are trees of immutable
descriptions, so every rule builds new nodes and never mutates inputs.
The rules:

- **Filter fusion** — adjacent ``Filter`` nodes become one conjunction,
  so each partition is masked once.
- **Predicate pushdown** — filters move below ``Project`` /
  ``WithColumn`` / ``Drop`` / ``Union``; key-only
  predicates move below ``GroupByAgg``.
  Predicates are rewritten through projections by expression
  substitution; a predicate is never pushed through a UDF-bearing
  computed column it depends on (UDFs are opaque and must not be
  duplicated).
- **Project∘Project fusion** — stacked projections collapse via
  substitution (skipped when it would duplicate a non-trivial inner
  expression).
- **WithColumn-chain fusion** — consecutive ``WithColumn`` nodes fuse
  into a single :class:`~repro.engine.plan.WithColumns` operator.
- **Limit pushdown** — ``Limit`` sinks below row-preserving narrow ops
  (``Project`` / ``WithColumn`` / ``Drop``) and adjacent limits fuse to
  their minimum.
- **Column pruning** — a top-down pass computes the columns each
  subtree must produce, drops computed columns nobody reads, narrows
  ``GroupByAgg`` inputs to keys + referenced values, and wraps
  ``Source`` scans in a narrowing projection.

Two node kinds are barriers: ``Cache`` (nothing is pushed through it
and its node instance is preserved, so materialized partitions survive
re-execution; the plan beneath it was optimized and compiled when
``DataFrame.cache()`` built the node) and ``MapPartitions`` (the
function is schema-opaque, so nothing is pushed past it and pruning
restarts below it with the full schema).
"""

from __future__ import annotations

import functools
import operator

import numpy as np

from repro.engine import plan as P
from repro.engine.expressions import Alias, BinaryOp, Column, Expr, Literal

_MAX_PASSES = 25


def optimize(node: P.PlanNode) -> P.PlanNode:
    """Return an optimized, semantically equivalent logical plan.

    The physical-planning pass that follows it before execution —
    fusing each run of narrow operators into one
    :class:`~repro.engine.plan.CompiledStage` — is
    :func:`repro.engine.compile.compile_stages`."""
    node = _rewrite(node)
    node = _prune(node, None)
    # Pruning inserts narrowing projections; fuse/push once more so
    # e.g. Project∘Project collapses and filters slide below them.
    return _rewrite(node)


# ----------------------------------------------------------------------
# Expression utilities
# ----------------------------------------------------------------------
def _conjuncts(expr: Expr) -> list:
    """Split a predicate on top-level logical-and into its factors."""
    if isinstance(expr, BinaryOp) and expr.fn is np.logical_and:
        return _conjuncts(expr.left) + _conjuncts(expr.right)
    return [expr]


def _conjoin(exprs: list) -> Expr:
    return functools.reduce(operator.and_, exprs)


def _is_cheap(expr: Expr) -> bool:
    """Cheap to evaluate twice: bare column refs and constants."""
    if isinstance(expr, (Column, Literal)):
        return True
    if isinstance(expr, Alias):
        return _is_cheap(expr.inner)
    return False


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
    P.Filter, P.Limit, P.Union, P.Cache, P.MapPartitions,
)


def static_columns(node: P.PlanNode, strict: bool = True) -> list | None:
    """Output column names, derived from the plan alone — logical
    nodes and the physical ``CompiledStage`` alike (a ``Cache`` sits on
    a physical plan).  ``strict`` is the optimizer's view: ``None`` at
    and above a schema-opaque ``MapPartitions``.  ``strict=False`` is
    ``DataFrame.columns``' best effort: the function is taken to keep
    its input's names."""
    if isinstance(node, (P.Source, P.StreamingSource)):
        return list(node.schema.names)
    if isinstance(node, P.Project):
        return [name for name, _ in node.exprs]
    if isinstance(node, P.GroupByAgg):
        return list(node.keys) + [a.out_name for a in node.aggs]
    if isinstance(node, P.MapPartitions) and strict:
        return None
    if isinstance(node, P.CompiledStage):
        steps = node.steps
    elif isinstance(node, P.WithColumn):
        steps = [("with_columns", [(node.name, node.expr)])]
    elif isinstance(node, P.WithColumns):
        steps = [("with_columns", node.items)]
    elif isinstance(node, P.Drop):
        steps = [("drop", node.names)]
    elif isinstance(node, _KEEPS_NAMES):
        steps = []
    else:
        raise TypeError(f"unknown plan node {type(node).__name__}")
    names = static_columns(node.children[0], strict)
    if names is None:
        return None
    for kind, payload in steps:
        if kind == "project":
            names = [name for name, _ in payload]
        elif kind == "with_columns":
            for name, _ in payload:
                if name not in names:
                    names = names + [name]
        elif kind == "drop":
            dropped = set(payload)
            names = [n for n in names if n not in dropped]
    return names


# ----------------------------------------------------------------------
# Bottom-up rewrite pass
# ----------------------------------------------------------------------
def _rewrite(node: P.PlanNode) -> P.PlanNode:
    for _ in range(_MAX_PASSES):
        node, changed = _rewrite_pass(node)
        if not changed:
            break
    return node


def _rewrite_pass(node: P.PlanNode):
    if isinstance(node, (P.Source, P.StreamingSource, P.Cache, P.CompiledStage)):
        # CompiledStage only appears when optimizing an already
        # physically-planned tree; treat it as a barrier like Cache.
        # StreamingSource is a leaf whose node instance must be
        # preserved — it accumulates batches across executions.
        return node, False
    changed = False
    new_children = []
    for child in node.children:
        new_child, child_changed = _rewrite_pass(child)
        changed = changed or child_changed
        new_children.append(new_child)
    if changed:
        node = _with_children(node, new_children)
    rewritten = _apply_rules(node)
    if rewritten is not None:
        return rewritten, True
    return node, changed


def _with_children(node: P.PlanNode, children: list) -> P.PlanNode:
    if isinstance(node, P.Project):
        return P.Project(children[0], node.exprs)
    if isinstance(node, P.Filter):
        return P.Filter(children[0], node.predicate)
    if isinstance(node, P.WithColumn):
        return P.WithColumn(children[0], node.name, node.expr)
    if isinstance(node, P.WithColumns):
        return P.WithColumns(children[0], node.items)
    if isinstance(node, P.Drop):
        return P.Drop(children[0], node.names)
    if isinstance(node, P.Union):
        return P.Union(list(children))
    if isinstance(node, P.Limit):
        return P.Limit(children[0], node.n)
    if isinstance(node, P.GroupByAgg):
        return P.GroupByAgg(children[0], node.keys, node.aggs)
    if isinstance(node, P.MapPartitions):
        return P.MapPartitions(children[0], node.fn, node.label)
    raise TypeError(f"unknown plan node {type(node).__name__}")


def _apply_rules(node: P.PlanNode):
    """One local rewrite at ``node``, or ``None`` if nothing applies."""
    if isinstance(node, P.Filter):
        return _rewrite_filter(node)
    if isinstance(node, P.Project):
        return _rewrite_project(node)
    if isinstance(node, P.WithColumn):
        child = node.child
        if isinstance(child, P.WithColumn):
            return P.WithColumns(
                child.child,
                [(child.name, child.expr), (node.name, node.expr)],
            )
        if isinstance(child, P.WithColumns):
            return P.WithColumns(
                child.child, list(child.items) + [(node.name, node.expr)]
            )
        return None
    if isinstance(node, P.Limit):
        return _rewrite_limit(node)
    return None


def _push_through_items(conjunct: Expr, items: list):
    """Rewrite a predicate to run *below* computed columns, or ``None``
    when it depends on a UDF-bearing column (never duplicate UDFs)."""
    for name, expr in reversed(items):
        if name in conjunct.references():
            if expr.has_udf():
                return None
            conjunct = conjunct.substitute({name: expr})
    return conjunct


def _rewrite_filter(node: P.Filter):
    child = node.child
    predicate = node.predicate

    if isinstance(child, P.Filter):
        return P.Filter(child.child, child.predicate & predicate)

    if isinstance(child, P.Project):
        mapping = dict(child.exprs)
        pushed, kept = [], []
        for conjunct in _conjuncts(predicate):
            refs = conjunct.references()
            if refs <= set(mapping) and not any(
                mapping[r].has_udf() for r in refs
            ):
                pushed.append(conjunct.substitute(mapping))
            else:
                kept.append(conjunct)
        if not pushed:
            return None
        new = P.Project(P.Filter(child.child, _conjoin(pushed)), child.exprs)
        return P.Filter(new, _conjoin(kept)) if kept else new

    if isinstance(child, (P.WithColumn, P.WithColumns)):
        items = (
            [(child.name, child.expr)]
            if isinstance(child, P.WithColumn)
            else list(child.items)
        )
        pushed, kept = [], []
        for conjunct in _conjuncts(predicate):
            below = _push_through_items(conjunct, items)
            if below is None:
                kept.append(conjunct)
            else:
                pushed.append(below)
        if not pushed:
            return None
        filtered = P.Filter(child.child, _conjoin(pushed))
        new = (
            P.WithColumn(filtered, child.name, child.expr)
            if isinstance(child, P.WithColumn)
            else P.WithColumns(filtered, items)
        )
        return P.Filter(new, _conjoin(kept)) if kept else new

    if isinstance(child, P.Drop):
        return P.Drop(P.Filter(child.child, predicate), child.names)

    if isinstance(child, P.Union):
        return P.Union([P.Filter(i, predicate) for i in child.inputs])

    if isinstance(child, P.GroupByAgg):
        keys = set(child.keys)
        pushed, kept = [], []
        for conjunct in _conjuncts(predicate):
            (pushed if conjunct.references() <= keys else kept).append(
                conjunct
            )
        if not pushed:
            return None
        new = P.GroupByAgg(
            P.Filter(child.child, _conjoin(pushed)), child.keys, child.aggs
        )
        return P.Filter(new, _conjoin(kept)) if kept else new

    return None


def _rewrite_project(node: P.Project):
    child = node.child
    if not isinstance(child, P.Project):
        return None
    inner = dict(child.exprs)
    uses: dict = {}
    for _, expr in node.exprs:
        for ref in expr.references():
            uses[ref] = uses.get(ref, 0) + 1
    for name, expr in inner.items():
        if not _is_cheap(expr) and uses.get(name, 0) > 1:
            return None  # fusing would evaluate a non-trivial expr twice
    return P.Project(
        child.child,
        [(name, expr.substitute(inner)) for name, expr in node.exprs],
    )


def _rewrite_limit(node: P.Limit):
    child = node.child
    if isinstance(child, P.Limit):
        return P.Limit(child.child, min(node.n, child.n))
    if isinstance(child, P.Project):
        return P.Project(P.Limit(child.child, node.n), child.exprs)
    if isinstance(child, P.WithColumn):
        return P.WithColumn(
            P.Limit(child.child, node.n), child.name, child.expr
        )
    if isinstance(child, P.WithColumns):
        return P.WithColumns(P.Limit(child.child, node.n), child.items)
    if isinstance(child, P.Drop):
        return P.Drop(P.Limit(child.child, node.n), child.names)
    return None


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

    if isinstance(node, (P.Source, P.StreamingSource)):
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
        child_req = _ordered(child_refs, static_columns(node.child))
        return P.Project(_prune(node.child, child_req), kept)

    if isinstance(node, P.Filter):
        if required is None:
            child_req = None
        else:
            child_req = _ordered(
                set(required) | node.predicate.references(),
                static_columns(node.child),
            )
        return P.Filter(_prune(node.child, child_req), node.predicate)

    if isinstance(node, P.WithColumn):
        return _prune(
            P.WithColumns(node.child, [(node.name, node.expr)]), required
        )

    if isinstance(node, P.WithColumns):
        if required is None:
            return P.WithColumns(_prune(node.child, None), list(node.items))
        req = set(required)
        kept = []
        for name, expr in reversed(node.items):
            if name in req:
                req.discard(name)
                req |= expr.references()
                kept.append((name, expr))
        kept.reverse()
        child_req = _ordered(req, static_columns(node.child))
        child = _prune(node.child, child_req)
        if not kept:
            return child
        return P.WithColumns(child, kept)

    if isinstance(node, P.Drop):
        child_req = static_columns(node) if required is None else required
        return P.Drop(_prune(node.child, child_req), node.names)

    if isinstance(node, P.Union):
        inputs = [_prune(i, required) for i in node.inputs]
        if required is not None:
            # Re-project every input so all branches yield the same
            # columns in the same order (branches may retain different
            # pushed-down helper columns).
            inputs = [
                P.Project(i, [(c, Column(c)) for c in required])
                for i in inputs
            ]
        return P.Union(inputs)

    if isinstance(node, P.Limit):
        return P.Limit(_prune(node.child, required), node.n)

    if isinstance(node, P.MapPartitions):
        # Opaque function: it may read (or emit) anything.
        return P.MapPartitions(_prune(node.child, None), node.fn, node.label)

    if isinstance(node, P.CompiledStage):
        return node  # physical node: already planned, leave untouched

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
