"""Column expressions evaluated vectorized over partitions."""

from __future__ import annotations

import numpy as np

from repro.engine.partition import Partition


class Expr:
    """Base expression node.  Supports arithmetic/comparison operators
    that build larger expressions, PySpark-style:

    >>> (col("fare") * lit(1.1)).alias("fare_with_tip")  # doctest: +SKIP
    """

    name: str = "expr"

    def evaluate(self, partition: Partition) -> np.ndarray:
        """Tree-walking evaluation over one partition.  The executor
        runs the flat program :meth:`emit` produces instead; this is
        the public single-expression evaluator and the reference the
        tests hold the compiled programs to."""
        raise NotImplementedError

    def alias(self, name: str) -> "Expr":
        return Alias(self, name)

    # -- static introspection (used by the plan optimizer) --------------
    def references(self) -> set:
        """Names of the columns this expression reads."""
        return set()

    def has_udf(self) -> bool:
        """Whether a user function occurs anywhere in the tree.  UDFs
        are treated as expensive/opaque: the optimizer never duplicates
        them via substitution."""
        return False

    def substitute(self, mapping: dict) -> "Expr":
        """Return a copy with ``Column`` references replaced by the
        expressions in ``mapping`` (names absent from the mapping are
        left as-is)."""
        return self

    def emit(self, program: list) -> None:
        """Append this node's flat postfix instructions to ``program``
        (see :mod:`repro.engine.compile` for the instruction set)."""
        raise NotImplementedError

    # -- operator sugar -------------------------------------------------
    def _binary(self, other, fn, symbol):
        other = other if isinstance(other, Expr) else Literal(other)
        return BinaryOp(self, other, fn, symbol)

    def __add__(self, other):
        return self._binary(other, np.add, "+")

    def __radd__(self, other):
        return Literal(other)._binary(self, np.add, "+")

    def __sub__(self, other):
        return self._binary(other, np.subtract, "-")

    def __rsub__(self, other):
        return Literal(other)._binary(self, np.subtract, "-")

    def __mul__(self, other):
        return self._binary(other, np.multiply, "*")

    def __rmul__(self, other):
        return Literal(other)._binary(self, np.multiply, "*")

    def __truediv__(self, other):
        return self._binary(other, np.divide, "/")

    def __mod__(self, other):
        return self._binary(other, np.mod, "%")

    def __floordiv__(self, other):
        return self._binary(other, np.floor_divide, "//")

    def __gt__(self, other):
        return self._binary(other, np.greater, ">")

    def __ge__(self, other):
        return self._binary(other, np.greater_equal, ">=")

    def __lt__(self, other):
        return self._binary(other, np.less, "<")

    def __le__(self, other):
        return self._binary(other, np.less_equal, "<=")

    def __eq__(self, other):  # noqa: D105 — expression equality builds a predicate
        return self._binary(other, np.equal, "==")

    def __ne__(self, other):
        return self._binary(other, np.not_equal, "!=")

    __hash__ = None

    def __and__(self, other):
        return self._binary(other, np.logical_and, "&")

    def __or__(self, other):
        return self._binary(other, np.logical_or, "|")

    def __invert__(self):
        return UnaryOp(self, np.logical_not, "~")

    def __neg__(self):
        return UnaryOp(self, np.negative, "-")


class Column(Expr):
    """Reference to an existing column."""

    def __init__(self, name: str):
        self.name = name

    def evaluate(self, partition: Partition) -> np.ndarray:
        if self.name not in partition.columns:
            raise KeyError(
                f"column {self.name!r} not found; available: "
                f"{list(partition.columns)}"
            )
        return partition.columns[self.name]

    def references(self) -> set:
        return {self.name}

    def substitute(self, mapping: dict) -> Expr:
        return mapping.get(self.name, self)

    def emit(self, program: list) -> None:
        program.append(("col", self.name))

    def __repr__(self):
        return f"col({self.name!r})"


class Literal(Expr):
    """A constant broadcast to the partition length."""

    def __init__(self, value):
        self.value = value
        self.name = f"lit({value!r})"

    def evaluate(self, partition: Partition) -> np.ndarray:
        if isinstance(self.value, str):
            out = np.empty(partition.num_rows, dtype=object)
            out[:] = self.value
            return out
        return np.full(partition.num_rows, self.value)

    def emit(self, program: list) -> None:
        program.append(("lit", self.value))

    def __repr__(self):
        return self.name


def _operator_instruction(fn, nin: int, symbol: str) -> tuple:
    """Numpy ufuncs get the replayable ``ufunc`` instruction; any other
    function is a plain ``call``, like a UDF."""
    if isinstance(fn, np.ufunc):
        return ("ufunc", fn, nin)
    return ("call", fn, nin, symbol)


class BinaryOp(Expr):
    def __init__(self, left: Expr, right: Expr, fn, symbol: str):
        self.left = left
        self.right = right
        self.fn = fn
        self.symbol = symbol
        self.name = f"({left.name} {symbol} {right.name})"

    def evaluate(self, partition: Partition) -> np.ndarray:
        return self.fn(self.left.evaluate(partition), self.right.evaluate(partition))

    def references(self) -> set:
        return self.left.references() | self.right.references()

    def has_udf(self) -> bool:
        return self.left.has_udf() or self.right.has_udf()

    def substitute(self, mapping: dict) -> Expr:
        return BinaryOp(
            self.left.substitute(mapping),
            self.right.substitute(mapping),
            self.fn,
            self.symbol,
        )

    def emit(self, program: list) -> None:
        self.left.emit(program)
        self.right.emit(program)
        program.append(_operator_instruction(self.fn, 2, self.symbol))

    def __repr__(self):
        return self.name


class UnaryOp(Expr):
    def __init__(self, operand: Expr, fn, symbol: str):
        self.operand = operand
        self.fn = fn
        self.symbol = symbol
        self.name = f"({symbol}{operand.name})"

    def evaluate(self, partition: Partition) -> np.ndarray:
        return self.fn(self.operand.evaluate(partition))

    def references(self) -> set:
        return self.operand.references()

    def has_udf(self) -> bool:
        return self.operand.has_udf()

    def substitute(self, mapping: dict) -> Expr:
        return UnaryOp(self.operand.substitute(mapping), self.fn, self.symbol)

    def emit(self, program: list) -> None:
        self.operand.emit(program)
        program.append(_operator_instruction(self.fn, 1, self.symbol))

    def __repr__(self):
        return self.name


class Alias(Expr):
    def __init__(self, inner: Expr, name: str):
        self.inner = inner
        self.name = name

    def evaluate(self, partition: Partition) -> np.ndarray:
        return self.inner.evaluate(partition)

    def references(self) -> set:
        return self.inner.references()

    def has_udf(self) -> bool:
        return self.inner.has_udf()

    def substitute(self, mapping: dict) -> Expr:
        return Alias(self.inner.substitute(mapping), self.name)

    def emit(self, program: list) -> None:
        self.inner.emit(program)

    def __repr__(self):
        return f"{self.inner!r}.alias({self.name!r})"


class VectorUdf(Expr):
    """A user function applied to whole column arrays at once."""

    def __init__(self, fn, inputs, name: str | None = None):
        self.fn = fn
        self.inputs = [i if isinstance(i, Expr) else Column(i) for i in inputs]
        self.name = name or getattr(fn, "__name__", "udf")

    def references(self) -> set:
        refs: set = set()
        for expr in self.inputs:
            refs |= expr.references()
        return refs

    def has_udf(self) -> bool:
        return True

    def substitute(self, mapping: dict) -> Expr:
        return VectorUdf(
            self.fn,
            [expr.substitute(mapping) for expr in self.inputs],
            name=self.name,
        )

    def emit(self, program: list) -> None:
        for expr in self.inputs:
            expr.emit(program)
        program.append(("call", self.fn, len(self.inputs), self.name))

    def evaluate(self, partition: Partition) -> np.ndarray:
        args = [expr.evaluate(partition) for expr in self.inputs]
        result = self.fn(*args)
        result = np.asarray(result) if not isinstance(result, np.ndarray) else result
        if result.shape[:1] != (partition.num_rows,):
            raise ValueError(
                f"udf {self.name!r} returned {result.shape[0] if result.ndim else 0} "
                f"rows for a {partition.num_rows}-row partition"
            )
        return result


def col(name: str) -> Column:
    """Reference a column by name."""
    return Column(name)


def lit(value) -> Literal:
    """A literal constant expression."""
    return Literal(value)


def udf(fn, inputs, name: str | None = None) -> VectorUdf:
    """Wrap a vectorized function of column arrays as an expression."""
    return VectorUdf(fn, inputs, name=name)
