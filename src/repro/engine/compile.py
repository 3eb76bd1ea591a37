"""Expression and stage compilation — the evaluator behind every
narrow operator the executor runs.

Two layers, both bit-identical to the tree-walking ``Expr.evaluate``
(which stays as the public single-expression evaluator and the oracle
the tests compare against):

**Expression compiler.**  :func:`compile_expr` lowers an
:class:`~repro.engine.expressions.Expr` tree into a flat postfix
program — a list of ``("col", name)`` / ``("lit", value)`` /
``("ufunc", fn, nin)`` / ``("call", fn, nargs, name)`` instructions —
executed by :class:`CompiledExpr` over a small value stack.  Evaluation
is a single flat loop (no Python recursion per partition) and, after a
one-partition warmup, runs chained *in-place* ufuncs over a pooled
scratch register set instead of allocating a fresh temporary per node:

- The first evaluation of each instruction records its input/output
  dtypes from the natural ``fn(a, b)`` call — the exact call
  ``Expr.evaluate`` makes, so values match by construction.
- Later evaluations with the same operand dtypes replay through
  ``fn(a, b, out=buf)`` where ``buf`` is either a consumed scratch
  operand (in-place chaining) or a buffer from a per-thread pool.
  Because ``buf`` carries the *recorded natural result dtype*, numpy
  selects the same inner loop and writes the same bits.
- Literals materialize as full arrays exactly like
  ``Literal.evaluate`` (scalar operands would change NEP-50 dtype
  promotion), but are cached per partition length, so a literal costs
  one allocation per distinct length instead of one per partition.
- Anything the recorder cannot prove (dtype drift from a UDF,
  non-1-D operands) silently takes the natural call for that
  instruction, never a wrong answer.
- ``call`` is a plain function call on whole column arrays: a
  :class:`~repro.engine.expressions.VectorUdf`, or an operator node
  built around a function that is not a numpy ufunc.

**Stage compiler.**  :func:`compile_stages` is the physical-planning
pass: it collapses each maximal chain of adjacent
Filter / Project / WithColumn / WithColumns / Drop nodes into a single
:class:`~repro.engine.plan.CompiledStage` node run by a
:class:`StageRunner`.  A stage evaluates its predicate first and
applies the selection *once*, copying only the columns live downstream
(selection-vector style), then computes projections over surviving
rows only — instead of one full-partition materialization per
operator.  A narrow node the pass never saw (``optimize=False``, a
drop-only chain) runs as a one-step stage (:func:`stage_runner`).

Thread safety: user threads may run the same compiled ``DataFrame``
concurrently, so scratch pools and the literal cache are
per-thread (``threading.local``); the dtype records are shared but
write-once-idempotent (concurrent recorders write identical values).
"""

from __future__ import annotations

import threading

import numpy as np

from repro.engine import plan as P
from repro.engine.expressions import Expr
from repro.engine.optimizer import _with_children
from repro.engine.partition import Partition

__all__ = [
    "CompiledExpr",
    "StageRunner",
    "compile_expr",
    "compile_stages",
    "stage_runner",
]

#: Max pooled scratch buffers per (length, dtype) bucket, and max
#: distinct buckets before the pool is dropped wholesale.  Scratch is
#: transient — a cleared pool only costs re-allocation, never
#: correctness — so the bounds keep long runs with many distinct
#: partition lengths from hoarding memory.
_POOL_PER_KEY = 4
_POOL_MAX_KEYS = 16


class _Record:
    """Dtype signature of one ``ufunc`` instruction, learned from its
    first natural execution: replay is only attempted when the live
    operand dtypes match ``in_dtypes`` exactly."""

    __slots__ = ("in_dtypes", "out_dtype")

    def __init__(self, in_dtypes: tuple, out_dtype: np.dtype):
        self.in_dtypes = in_dtypes
        self.out_dtype = out_dtype


class CompiledExpr:
    """A flat postfix program over partition columns.

    ``evaluate(columns, num_rows)`` returns the same array (same
    values, same dtype, same aliasing behaviour for bare column
    references) as ``Expr.evaluate`` on a partition holding
    ``columns``.
    """

    __slots__ = ("program", "name", "_records", "_tls")

    def __init__(self, program: list, name: str = "expr"):
        self.program = program
        self.name = name
        self._records: list = [None] * len(program)
        self._tls = threading.local()

    def __repr__(self):
        return f"CompiledExpr[{len(self.program)} instrs: {self.name}]"

    # -- per-thread state ----------------------------------------------
    def _state(self):
        state = getattr(self._tls, "state", None)
        if state is None:
            state = self._tls.state = ({}, {})  # (scratch pool, lit cache)
        return state

    @staticmethod
    def _acquire(pool: dict, n: int, dtype) -> np.ndarray:
        bucket = pool.get((n, dtype))
        if bucket:
            return bucket.pop()
        return np.empty(n, dtype=dtype)

    @staticmethod
    def _release(pool: dict, arr: np.ndarray) -> None:
        if arr.ndim != 1 or arr.base is not None or not arr.flags.c_contiguous:
            return
        key = (arr.shape[0], arr.dtype)
        bucket = pool.get(key)
        if bucket is None:
            if len(pool) >= _POOL_MAX_KEYS:
                pool.clear()
            bucket = pool[key] = []
        if len(bucket) < _POOL_PER_KEY:
            bucket.append(arr)

    @staticmethod
    def _materialize_literal(cache: dict, value, n: int) -> np.ndarray:
        key = (id(value), n)
        arr = cache.get(key)
        if arr is None:
            # Mirror Literal.evaluate exactly: object arrays for
            # strings, np.full otherwise (a scalar operand would
            # promote differently under NEP 50).
            if isinstance(value, str):
                arr = np.empty(n, dtype=object)
                arr[:] = value
            else:
                arr = np.full(n, value)
            if len(cache) > 64:
                cache.clear()
            cache[key] = arr
        return arr

    # -- evaluation -----------------------------------------------------
    def evaluate(self, columns: dict, num_rows: int) -> np.ndarray:
        """Run the program against a dict of column arrays.

        ``stack`` holds ``(array, owned)`` pairs; ``owned`` marks
        arrays this evaluation allocated exclusively (safe to reuse as
        in-place ufunc outputs or recycle into the scratch pool).
        Column references, cached literals, and ``call`` results are
        never owned — a UDF may return one of its inputs unchanged.
        """
        pool, lit_cache = self._state()
        records = self._records
        stack: list = []
        for idx, instr in enumerate(self.program):
            kind = instr[0]
            if kind == "col":
                name = instr[1]
                arr = columns.get(name)
                if arr is None:
                    raise KeyError(
                        f"column {name!r} not found; available: "
                        f"{list(columns)}"
                    )
                stack.append((arr, False))
            elif kind == "lit":
                stack.append(
                    (self._materialize_literal(lit_cache, instr[1], num_rows), False)
                )
            elif kind == "ufunc":
                fn, nin = instr[1], instr[2]
                if nin == 2:
                    b, b_owned = stack.pop()
                    a, a_owned = stack.pop()
                    operands, in_dtypes = (a, b), (a.dtype, b.dtype)
                else:
                    a, a_owned = stack.pop()
                    b, b_owned = None, False
                    operands, in_dtypes = (a,), (a.dtype,)
                rec = records[idx]
                replayable = (
                    rec is not None
                    and rec.in_dtypes == in_dtypes
                    and all(
                        op.ndim == 1 and op.shape[0] == num_rows
                        for op in operands
                    )
                )
                if replayable:
                    out_dtype = rec.out_dtype
                    if a_owned and a.dtype == out_dtype:
                        out, a_owned = a, False
                    elif b_owned and b.dtype == out_dtype:
                        out, b_owned = b, False
                    else:
                        out = self._acquire(pool, num_rows, out_dtype)
                    fn(*operands, out=out)
                else:
                    out = fn(*operands)
                    if out.ndim == 1 and out.shape[0] == num_rows:
                        records[idx] = _Record(in_dtypes, out.dtype)
                    else:
                        records[idx] = None
                if a_owned:
                    self._release(pool, a)
                if b_owned:
                    self._release(pool, b)
                stack.append((out, True))
            else:  # "call"
                fn, nargs, name = instr[1], instr[2], instr[3]
                args = [pair[0] for pair in stack[len(stack) - nargs :]]
                del stack[len(stack) - nargs :]
                result = fn(*args)
                result = (
                    np.asarray(result)
                    if not isinstance(result, np.ndarray)
                    else result
                )
                if result.shape[:1] != (num_rows,):
                    raise ValueError(
                        f"udf {name!r} returned "
                        f"{result.shape[0] if result.ndim else 0} "
                        f"rows for a {num_rows}-row partition"
                    )
                stack.append((result, False))
        return stack.pop()[0]


def compile_expr(expr: Expr) -> CompiledExpr:
    """Lower an expression tree to a :class:`CompiledExpr`."""
    program: list = []
    expr.emit(program)
    return CompiledExpr(program, name=expr.name)


# ----------------------------------------------------------------------
# Stage runner: one fused narrow chain, selection-vector execution
# ----------------------------------------------------------------------
class StageRunner:
    """Executes one :class:`~repro.engine.plan.CompiledStage` over a
    partition: ``runner(part) -> part``.

    Filter steps evaluate their (compiled) predicate on the current
    columns, then — unless the mask is all-true, in which case nothing
    is copied at all — apply the selection once, to only the columns a
    later step or the stage output still needs.  Compute steps then run
    over the compacted (surviving-rows-only) columns.
    """

    __slots__ = ("steps",)

    def __init__(self, steps: list):
        keeps = self._filter_keeps(steps)
        self.steps = []
        for step, keep in zip(steps, keeps):
            kind, payload = step
            if kind == "filter":
                self.steps.append((kind, compile_expr(payload), keep))
            elif kind in ("project", "with_columns"):
                compiled = [
                    (name, compile_expr(expr)) for name, expr in payload
                ]
                self.steps.append((kind, compiled, None))
            else:  # "drop"
                self.steps.append((kind, frozenset(payload), None))

    @staticmethod
    def _filter_keeps(steps: list) -> list:
        """Backward liveness pass: for each filter step, the set of
        column names that must survive its compaction (``None`` means
        keep everything — the conservative default).

        ``overwritten_later`` tracks names a later ``with_columns``
        assigns: they are kept through compactions even when dead, so
        the overwrite replaces them *in place* and the output column
        order matches dict-update semantics (``Partition.with_column``).
        """
        live: set | None = None  # None == every column is live
        overwritten_later: set = set()
        keeps: list = [None] * len(steps)
        for i in range(len(steps) - 1, -1, -1):
            kind, payload = steps[i]
            if kind == "filter":
                if live is not None:
                    keeps[i] = frozenset(live | overwritten_later)
                    live = live | payload.references()
            elif kind == "project":
                refs: set = set()
                for _, expr in payload:
                    refs |= expr.references()
                live = refs
                overwritten_later = set()  # project rebuilds the dict
            elif kind == "with_columns":
                names = {name for name, _ in payload}
                overwritten_later |= names
                if live is not None:
                    refs = set()
                    for _, expr in payload:
                        refs |= expr.references()
                    live = (live - names) | refs
            # "drop": dropped names are already absent from `live`.
        return keeps

    def __call__(self, part: Partition) -> Partition:
        cols = part.columns
        n = part.num_rows
        touched = False
        for kind, payload, keep in self.steps:
            if kind == "filter":
                mask = payload.evaluate(cols, n)
                if mask.dtype != np.bool_:
                    mask = np.asarray(mask, dtype=bool)
                if mask.all():
                    continue  # all-true fast path: no copies
                # One selection vector, applied with ``take``: boolean
                # fancy indexing rescans the mask per column, while
                # flatnonzero scans it once and ``take`` is a straight
                # gather (~4x faster at typical selectivities).
                idx = np.flatnonzero(mask)
                if keep is None:
                    cols = {
                        name: arr.take(idx, axis=0)
                        for name, arr in cols.items()
                    }
                else:
                    cols = {
                        name: arr.take(idx, axis=0)
                        for name, arr in cols.items()
                        if name in keep
                    }
                n = len(idx)
                touched = True
            elif kind == "project":
                cols = {
                    name: compiled.evaluate(cols, n)
                    for name, compiled in payload
                }
                touched = True
            elif kind == "with_columns":
                if not touched:
                    cols = dict(cols)
                    touched = True
                for name, compiled in payload:
                    cols[name] = compiled.evaluate(cols, n)
            else:  # "drop"
                cols = {
                    name: arr
                    for name, arr in cols.items()
                    if name not in payload
                }
                touched = True
        if not touched:
            return part  # pure filter stage whose masks were all-true
        return Partition._from_arrays(cols, n)


def stage_runner(node: P.PlanNode) -> StageRunner:
    """The runner for a ``CompiledStage`` (cached on the node), or for
    a narrow node the stage compiler never saw, which runs as a
    one-step stage."""
    if not isinstance(node, P.CompiledStage):
        return StageRunner([_as_step(node)])
    runner = node._runner
    if runner is None:
        runner = node._runner = StageRunner(node.steps)
    return runner


# ----------------------------------------------------------------------
# Physical planning pass: collapse narrow chains into CompiledStage
# ----------------------------------------------------------------------
_FUSABLE = (P.Filter, P.Project, P.WithColumn, P.WithColumns, P.Drop)


def _as_step(node: P.PlanNode) -> tuple:
    if isinstance(node, P.Filter):
        return ("filter", node.predicate)
    if isinstance(node, P.Project):
        return ("project", list(node.exprs))
    if isinstance(node, P.WithColumn):
        return ("with_columns", [(node.name, node.expr)])
    if isinstance(node, P.WithColumns):
        return ("with_columns", list(node.items))
    return ("drop", list(node.names))


def compile_stages(node: P.PlanNode) -> P.PlanNode:
    """Collapse every maximal run of adjacent narrow operators into a
    :class:`~repro.engine.plan.CompiledStage` (with its runner built
    eagerly).

    A ``Cache`` node is kept as it is (the instance holds the
    materialized partitions, and ``DataFrame.cache()`` built it on an
    already-compiled plan); a chain that carries no expression at
    all — only ``Drop`` nodes — has nothing to compile and is kept as
    it is.
    """
    if isinstance(node, (P.Source, P.StreamingSource, P.Cache)):
        return node
    if isinstance(node, _FUSABLE):
        chain = []  # top-down
        cursor = node
        while isinstance(cursor, _FUSABLE):
            chain.append(cursor)
            cursor = cursor.child
        if any(not isinstance(n, P.Drop) for n in chain):
            steps = [_as_step(n) for n in reversed(chain)]
            stage = P.CompiledStage(compile_stages(cursor), steps)
            stage._runner = StageRunner(steps)
            return stage
    return _with_children(node, [compile_stages(c) for c in node.children])
