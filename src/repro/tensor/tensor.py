"""The :class:`Tensor` class and its differentiable operations.

The implementation is a vectorized reverse-mode autograd: every
operation returns a new ``Tensor`` holding the numpy result, the set of
parent tensors, and a closure that maps the output gradient back to
parent gradients.  ``backward()`` walks the graph in reverse
topological order, accumulating gradients.

Broadcasting follows numpy semantics; gradients are "unbroadcast"
(summed over expanded axes) so shapes always match their tensors.
Every differentiable op, here and in ``ops_conv`` / ``ops_fused``, is
defined under :func:`_op`.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import wraps

import numpy as np

from repro.obs import op_span
from repro.tensor.pool import default_pool

_grad_enabled = True

# Active TraceRecorder (repro.tensor.trace), or None.  Ops report
# themselves through :func:`_op` while a TraceSession is capturing a
# step; outside capture that is one None check per op call.
_TRACE = None

#: Every differentiable op by name: the callable :func:`_op` returns.
_OPS: dict = {}

_freed_counter = None  # lazy obs counter for autograd.freed_bytes


def _count_freed(nbytes: int) -> None:
    global _freed_counter
    if _freed_counter is None:
        from repro import obs

        _freed_counter = obs.registry.counter("autograd.freed_bytes")
    _freed_counter.inc(nbytes)


@contextmanager
def no_grad():
    """Disable graph recording within the block (inference mode)."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


def _op(name: str):
    """Define a differentiable op named ``name`` (``"tensor.sub"``).

    The one code that times, names and records ops, so an op body holds
    only its math and its :meth:`Tensor._make` wiring: the call runs
    under ``op_span(name)``; each ``Tensor`` it returns is named so
    :meth:`Tensor.backward` times its closure under ``name +
    ".backward"``; while a trace is capturing, the call is recorded
    with its real ``args`` / ``kwargs``; and the op enters ``_OPS``.
    Composed helpers (``mean``, ``flatten``, ``nn.functional``) stay
    undecorated, so no op span opens inside another.
    """
    grad_span = name + ".backward"

    def decorate(fn):
        @wraps(fn)
        def op(*args, **kwargs):
            with op_span(name):
                ret = fn(*args, **kwargs)
            for out in ret if type(ret) is tuple else (ret,):
                if isinstance(out, Tensor):
                    out._grad_span = grad_span
            if _TRACE is not None:
                _TRACE.record(op, args, kwargs, ret)
            return ret

        _OPS[name] = op
        return op

    return decorate


def _as_array(data, dtype=None) -> np.ndarray:
    arr = np.asarray(data)
    if dtype is not None:
        return arr.astype(dtype, copy=False)
    if arr.dtype == np.float64:
        return arr.astype(np.float32)
    if arr.dtype.kind in "ui" and arr.dtype != np.int64:
        return arr.astype(np.int64)
    return arr


def _is_basic_key(key) -> bool:
    """True when ``key`` is basic (non-fancy) numpy indexing: ints,
    slices, Ellipsis, and newaxis — the kinds that can never address
    the same element twice."""
    items = key if isinstance(key, tuple) else (key,)
    return all(
        item is None
        or item is Ellipsis
        or isinstance(item, (int, np.integer, slice))
        for item in items
    )


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` over axes that were broadcast to reach ``grad.shape``."""
    if grad.shape == shape:
        return grad
    # Sum away leading dimensions added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size 1 in the original shape.
    axes = tuple(
        i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1
    )
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A multi-dimensional array with optional gradient tracking.

    Parameters
    ----------
    data:
        Anything ``numpy.asarray`` accepts.  float64 input is downcast
        to float32 (the engine's default floating dtype).
    requires_grad:
        When True, operations involving this tensor are recorded and
        ``backward()`` will populate :attr:`grad`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev", "_freed",
                 "_grad_span")
    __array_priority__ = 100  # numpy defers binary ops to Tensor

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = _as_array(data, dtype)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._backward = None
        self._prev: tuple = ()
        self._freed = False
        self._grad_span: str | None = None  # set by _op: "<op>.backward"

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_note = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{grad_note})"

    def numpy(self) -> np.ndarray:
        """Return the underlying numpy array (no copy)."""
        return self.data

    def item(self):
        """Return the single scalar value held by this tensor."""
        return self.data.item()

    @_op("tensor.detach")
    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but outside the graph."""
        return Tensor(self.data, requires_grad=False)

    # ------------------------------------------------------------------
    # Autograd machinery
    # ------------------------------------------------------------------
    def _accumulate(self, grad: np.ndarray, donate: bool = False) -> None:
        """Add ``grad`` into :attr:`grad`.

        ``donate=True`` tells the accumulator the caller computed
        ``grad`` fresh and will never touch it again: when this is the
        first contribution (and dtype/ownership allow) the array is
        adopted without the usual defensive copy, and when it cannot
        be adopted it is offered to the buffer pool instead.  A
        ``grad`` whose shape is not this tensor's raises ``ValueError``:
        an op that sends one is wrong, and neither adopting it nor
        broadcasting it into :attr:`grad` would say so.
        """
        if grad.shape != self.data.shape:
            raise ValueError(
                f"gradient of shape {grad.shape} for a tensor of shape "
                f"{self.data.shape}"
            )
        existing = self.grad
        if existing is None:
            if (
                donate
                and grad.dtype == self.data.dtype
                and grad.base is None
                and grad.flags.owndata
            ):
                self.grad = grad
                return
            self.grad = grad.astype(self.data.dtype, copy=True)
        else:
            existing += grad
        if donate:
            default_pool().release(grad)

    def zero_grad(self) -> None:
        """Clear any accumulated gradient."""
        self.grad = None

    def _release(self) -> int:
        """Free this intermediate's activation, gradient, and closure.

        Called by the graph-freeing backward walk once the node's own
        backward has run (every consumer already ran — reverse
        topological order guarantees it).  The gradient buffer goes to
        the array pool for reuse; the activation reference is dropped
        so the array is garbage collected unless a view pins it.
        Returns the number of bytes released for the
        ``autograd.freed_bytes`` counter.
        """
        freed = 0
        grad = self.grad
        if grad is not None:
            freed += grad.nbytes
            # Pre-filter what the pool would reject anyway (views,
            # non-contiguous buffers): this path runs for every freed
            # node, so skipping the call + reject accounting matters.
            if grad.base is None and grad.flags.c_contiguous and grad.nbytes:
                default_pool().release(grad)
            self.grad = None
        data = self.data
        if data is not None:
            if data.base is None:
                freed += data.nbytes
            self.data = None
        self._backward = None
        self._prev = ()
        self._freed = True
        return freed

    def backward(self, grad=None, free_graph: bool = False) -> None:
        """Run reverse-mode autodiff from this tensor.

        ``grad`` defaults to ones for scalar outputs; non-scalar
        outputs require an explicit output gradient.

        ``free_graph=True`` releases each intermediate's activation,
        gradient, and backward closure as soon as its own backward has
        run (its last consumer is guaranteed to have run already), so
        peak activation memory falls *during* the backward pass instead
        of when the whole graph goes out of scope.  Leaf tensors
        (``requires_grad`` with no history) keep their gradients; the
        tensor backward() was called on keeps its data.  A second
        backward() through a freed graph raises ``RuntimeError`` —
        leave ``free_graph`` False (the default) to keep a reusable
        graph.  A freeing backward also ends the array pool's step
        (:meth:`ArrayPool.end_step <repro.tensor.pool.ArrayPool.end_step>`).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor without requires_grad")
        if self._freed:
            raise RuntimeError(
                "backward() through a graph that was already freed by "
                "backward(free_graph=True); rerun the forward pass or "
                "pass free_graph=False to the first backward()"
            )
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError(
                    "backward() without an explicit gradient requires a "
                    "scalar output"
                )
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.data.shape:
                raise ValueError(
                    f"gradient shape {grad.shape} does not match tensor "
                    f"shape {self.data.shape}"
                )

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            if node._freed:
                raise RuntimeError(
                    "backward() reached a tensor freed by a previous "
                    "backward(free_graph=True); rerun the forward pass "
                    "or pass free_graph=False to that backward()"
                )
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._prev:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        freed_bytes = 0
        for node in reversed(topo):
            closure = node._backward
            if closure is None:
                continue
            if node.grad is not None:
                if node._grad_span is None:  # a node no _op made
                    closure(node.grad)
                else:
                    with op_span(node._grad_span):
                        closure(node.grad)
            if not free_graph:
                continue
            if node is self:
                # The root stays readable (loss.item() after backward)
                # but its closure and parent links go, so a second
                # backward() fails loudly instead of silently doing
                # nothing.
                node._backward = None
                node._prev = ()
                node._freed = True
            else:
                freed_bytes += node._release()
        if free_graph:
            if freed_bytes:
                _count_freed(freed_bytes)
            default_pool().end_step()

    @staticmethod
    def _make(data: np.ndarray, parents: tuple, backward) -> "Tensor":
        """Create an op output, wiring the graph if grads are on."""
        track = _grad_enabled and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=track)
        if track:
            out._prev = tuple(p for p in parents if p.requires_grad)
            out._backward = backward
            if _TRACE is not None:
                # Every graph node passes through here; the recorder
                # rejects the tape at finalize if no _op call claimed
                # the node.
                _TRACE.saw(out)
        return out

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    @staticmethod
    def _coerce(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    @_op("tensor.add")
    def __add__(self, other):
        other = self._coerce(other)
        data = self.data + other.data

        def backward(grad):
            if self.requires_grad:
                g = _unbroadcast(grad, self.shape)
                self._accumulate(g, donate=g is not grad)
            if other.requires_grad:
                g = _unbroadcast(grad, other.shape)
                other._accumulate(g, donate=g is not grad)

        return Tensor._make(data, (self, other), backward)

    __radd__ = __add__

    @_op("tensor.sub")
    def __sub__(self, other):
        other = self._coerce(other)
        data = self.data - other.data

        def backward(grad):
            if self.requires_grad:
                g = _unbroadcast(grad, self.shape)
                self._accumulate(g, donate=g is not grad)
            if other.requires_grad:
                other._accumulate(_unbroadcast(-grad, other.shape), donate=True)

        return Tensor._make(data, (self, other), backward)

    @_op("tensor.mul")
    def __mul__(self, other):
        other = self._coerce(other)
        data = self.data * other.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate(
                    _unbroadcast(grad * other.data, self.shape), donate=True
                )
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(grad * self.data, other.shape), donate=True
                )

        return Tensor._make(data, (self, other), backward)

    __rmul__ = __mul__

    @_op("tensor.neg")
    def __neg__(self):
        def backward(grad):
            self._accumulate(-grad, donate=True)

        return Tensor._make(-self.data, (self,), backward)

    @_op("tensor.pow")
    def __pow__(self, exponent):
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        data = self.data**exponent

        def backward(grad):
            self._accumulate(
                grad * exponent * self.data ** (exponent - 1), donate=True
            )

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------
    # Unary math
    # ------------------------------------------------------------------
    @_op("tensor.exp")
    def exp(self):
        data = np.exp(self.data)

        def backward(grad):
            self._accumulate(grad * data, donate=True)

        return Tensor._make(data, (self,), backward)

    @_op("tensor.log")
    def log(self):
        data = np.log(self.data)

        def backward(grad):
            self._accumulate(grad / self.data, donate=True)

        return Tensor._make(data, (self,), backward)

    @_op("tensor.tanh")
    def tanh(self):
        data = np.tanh(self.data)

        def backward(grad):
            self._accumulate(grad * (1.0 - data**2), donate=True)

        return Tensor._make(data, (self,), backward)

    @_op("tensor.relu")
    def relu(self):
        mask = self.data > 0
        data = self.data * mask

        def backward(grad):
            self._accumulate(grad * mask, donate=True)

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    @_op("tensor.sum")
    def sum(self, axis=None, keepdims: bool = False):
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad):
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.shape).copy(), donate=True)

        return Tensor._make(data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False):
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    @_op("tensor.max")
    def max(self, axis=None, keepdims: bool = False):
        """Maximum over ``axis``; tied (or NaN) maxima share the gradient."""
        data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad):
            g = grad
            d = data
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
                d = np.expand_dims(d, axis)
            mask = self.data == d
            if np.isnan(d).any():  # NaN != NaN: mark the NaNs by hand
                mask |= np.isnan(self.data)
            # Tie counts in the data dtype: an int64 divisor would make
            # every max gradient a float64 array.
            counts = mask.sum(axis=axis, keepdims=True).astype(self.data.dtype)
            self._accumulate(mask * g / counts, donate=True)

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    @_op("tensor.reshape")
    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        data = self.data.reshape(shape)
        original = self.shape

        def backward(grad):
            self._accumulate(grad.reshape(original))

        return Tensor._make(data, (self,), backward)

    def flatten(self, start_axis: int = 0):
        new_shape = self.shape[:start_axis] + (-1,)
        return self.reshape(*new_shape)

    @_op("tensor.getitem")
    def __getitem__(self, key):
        if isinstance(key, Tensor):
            key = key.data
        data = self.data[key]
        shape, dtype = self.data.shape, self.data.dtype
        basic = _is_basic_key(key)
        if not basic:
            from repro.tensor.trace import notify_trace_unsafe

            # Fancy index arrays may be data-dependent (gathers):
            # baking them into a trace could silently replay stale
            # indices, so refuse instead.
            notify_trace_unsafe("fancy indexing inside the traced region")

        def backward(grad):
            full = default_pool().acquire(shape, dtype, zero=True)
            if basic:
                # Basic (slice/int) indexing never selects an element
                # twice, so a direct strided assignment replaces the
                # much slower np.add.at scatter.
                full[key] = grad
            else:
                np.add.at(full, key, grad)
            self._accumulate(full, donate=True)

        return Tensor._make(data, (self,), backward)


# ----------------------------------------------------------------------
# Free functions
# ----------------------------------------------------------------------
def zeros(shape, requires_grad: bool = False, dtype=np.float32) -> Tensor:
    out = Tensor(np.zeros(shape, dtype=dtype), requires_grad=requires_grad)
    if _TRACE is not None and not requires_grad:
        # Value depends only on shape, which the trace signature
        # guards, so the array is safe to bake into the tape
        # (recurrent init_state zeros enter traces this way).
        _TRACE.register_const(out)
    return out


@_op("tensor.concatenate")
def concatenate(tensors, axis: int = 0) -> Tensor:
    """Differentiable concatenation along ``axis``."""
    tensors = [Tensor._coerce(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad):
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                sl = [slice(None)] * grad.ndim
                sl[axis] = slice(start, stop)
                t._accumulate(grad[tuple(sl)])

    return Tensor._make(data, tuple(tensors), backward)


@_op("tensor.stack")
def stack(tensors, axis: int = 0) -> Tensor:
    """Differentiable stacking along a new axis."""
    tensors = [Tensor._coerce(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad):
        slices = np.moveaxis(grad, axis, 0)
        for t, g in zip(tensors, slices):
            if t.requires_grad:
                t._accumulate(g)

    return Tensor._make(data, tuple(tensors), backward)
