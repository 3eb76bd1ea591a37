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
        """Tree-walking evaluation over one partition: the one
        evaluator the executor runs every narrow operator with."""
        raise NotImplementedError

    def alias(self, name: str) -> "Expr":
        return Alias(self, name)

    # -- static introspection (used by the plan optimizer) --------------
    def references(self) -> set:
        """Names of the columns this expression reads."""
        return set()

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

    def __repr__(self):
        return self.name


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
