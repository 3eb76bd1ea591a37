"""A numpy-backed reverse-mode autograd tensor engine.

This package substitutes for PyTorch's core: :class:`Tensor` carries a
value and (optionally) a gradient, operations build a dynamic graph,
and :meth:`Tensor.backward` runs reverse-mode differentiation over a
topological ordering of that graph.

Two execution backends are provided for the convolution-heavy
primitives (see :mod:`repro.tensor.backend`):

- ``"accelerated"`` — channel-major im2col and one BLAS gemm per
  convolution; stands in for the GPU runs in the paper's Figure 9.
- ``"naive"`` — straightforward Python-loop reference implementations;
  stands in for the CPU runs.

Both backends produce identical numerics; only speed differs, which is
exactly the axis Figure 9 measures.
"""

from repro.tensor.backend import use_backend
from repro.tensor.pool import default_pool
from repro.tensor.tensor import (
    Tensor,
    zeros,
    no_grad,
    concatenate,
    stack,
)

from repro.tensor.trace import TraceSession, notify_trace_unsafe

__all__ = [
    "Tensor",
    "zeros",
    "no_grad",
    "concatenate",
    "stack",
    "use_backend",
    "default_pool",
    "TraceSession",
    "notify_trace_unsafe",
]
