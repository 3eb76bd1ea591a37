"""A numpy-backed reverse-mode autograd tensor engine.

This package substitutes for PyTorch's core: :class:`Tensor` carries a
value and (optionally) a gradient, operations build a dynamic graph,
and :meth:`Tensor.backward` runs reverse-mode differentiation over a
topological ordering of that graph.

Two execution backends are provided for the convolution-heavy
primitives (see :mod:`repro.tensor.backend`):

- ``"accelerated"`` — vectorized shift-and-add BLAS implementations;
  stands in for the GPU runs in the paper's Figure 9.
- ``"naive"`` — straightforward Python-loop reference implementations;
  stands in for the CPU runs.

Both backends produce identical numerics; only speed differs, which is
exactly the axis Figure 9 measures.
"""

from repro.tensor.backend import (
    get_backend,
    set_backend,
    use_backend,
)
from repro.tensor.pool import ArrayPool, default_pool
from repro.tensor.tensor import (
    Tensor,
    tensor,
    zeros,
    ones,
    full,
    arange,
    randn,
    rand,
    no_grad,
    is_grad_enabled,
    concatenate,
    stack,
    where,
)

from repro.tensor.trace import (
    TraceSession,
    TraceRecorder,
    notify_trace_unsafe,
)

__all__ = [
    "Tensor",
    "tensor",
    "zeros",
    "ones",
    "full",
    "arange",
    "randn",
    "rand",
    "no_grad",
    "is_grad_enabled",
    "concatenate",
    "stack",
    "where",
    "get_backend",
    "set_backend",
    "use_backend",
    "ArrayPool",
    "default_pool",
    "TraceSession",
    "TraceRecorder",
    "notify_trace_unsafe",
]
