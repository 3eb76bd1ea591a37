"""One finite-difference gradcheck over the op table.

Every differentiable op is defined under ``repro.tensor.tensor._op``,
which enters it in ``_OPS``; each gets one small float64 case here.
The leaves are float64, so each kernel runs (and hands back its
gradient) in float64; op outputs are stored as float32, so the central
differences carry float32 rounding of the output, which ``eps = 1e-3``
and a 1e-3 relative bound leave room for.  The output is weighted by a
fixed random upstream gradient, so every output element's gradient
counts.  A registered op without a case fails
``test_every_op_has_a_case``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.tensor import Tensor, concatenate, stack
from repro.tensor.ops_conv import conv2d, conv_transpose2d, max_pool2d
from repro.tensor.ops_fused import batch_norm2d, fused_linear, fused_lstm_gates
from repro.tensor.tensor import _OPS
from tests.conftest import assert_grad_close, numeric_gradient

#: Ops with no gradient to check: ``detach`` makes no graph node.
NOT_DIFFERENTIABLE = {"tensor.detach"}


def leaf(data) -> Tensor:
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=True,
                  dtype=np.float64)


def normal(rng, *shape) -> Tensor:
    return leaf(rng.standard_normal(shape))


def positive(rng, *shape) -> Tensor:
    return leaf(rng.random(shape) + 0.5)


#: op name -> ``rng -> (leaves, fn)``: ``fn(*leaves)`` is one tensor.
CASES = {
    "tensor.add": lambda r: ((normal(r, 2, 3), normal(r, 3)), lambda a, b: a + b),
    "tensor.sub": lambda r: ((normal(r, 2, 3), normal(r, 2, 1)), lambda a, b: a - b),
    "tensor.mul": lambda r: ((normal(r, 2, 3), normal(r, 3)), lambda a, b: a * b),
    "tensor.neg": lambda r: ((normal(r, 2, 3),), lambda a: -a),
    "tensor.pow": lambda r: ((positive(r, 2, 3),), lambda a: a**2.5),
    "tensor.exp": lambda r: ((normal(r, 2, 3),), lambda a: a.exp()),
    "tensor.log": lambda r: ((positive(r, 2, 3),), lambda a: a.log()),
    "tensor.tanh": lambda r: ((normal(r, 2, 3),), lambda a: a.tanh()),
    "tensor.relu": lambda r: ((normal(r, 2, 3),), lambda a: a.relu()),
    "tensor.sum": lambda r: ((normal(r, 2, 3, 4),), lambda a: a.sum(axis=(0, 2))),
    # Two-way ties: a central difference splits a tied maximum's
    # derivative in half, as the op does.
    "tensor.max": lambda r: (
        (leaf([[1.0, 3.0, 3.0, 0.0], [2.0, 5.0, 4.0, 5.0], [0.5, -1, 0.25, 0]]),),
        lambda a: a.max(axis=1),
    ),
    "tensor.reshape": lambda r: ((normal(r, 2, 6),), lambda a: a.reshape(3, 4)),
    "tensor.getitem": lambda r: ((normal(r, 3, 4),), lambda a: a[1:, ::2]),
    "tensor.concatenate": lambda r: (
        (normal(r, 2, 1), normal(r, 2, 3)),
        lambda a, b: concatenate([a, b], axis=1),
    ),
    "tensor.stack": lambda r: (
        (normal(r, 2, 3), normal(r, 2, 3)),
        lambda a, b: stack([a, b], axis=1),
    ),
    "ops_conv.conv2d": lambda r: (
        (normal(r, 2, 2, 4, 4), normal(r, 2, 1, 4, 4), normal(r, 3, 3, 3, 3),
         normal(r, 3)),
        lambda a, b, w, bias: conv2d(
            [a, b], w, bias, padding=1, input_activation="relu"
        ),
    ),
    "ops_conv.conv_transpose2d": lambda r: (
        (normal(r, 1, 2, 3, 3), normal(r, 2, 3, 3, 3), normal(r, 3)),
        lambda x, w, bias: conv_transpose2d(x, w, bias, stride=2, padding=1),
    ),
    "ops_conv.max_pool2d": lambda r: (
        (normal(r, 1, 2, 4, 4),), lambda x: max_pool2d(x, 2)
    ),
    "ops_fused.linear": lambda r: (
        (normal(r, 3, 4), normal(r, 2, 4), normal(r, 2)), fused_linear
    ),
    "ops_fused.batch_norm2d": lambda r: (
        (normal(r, 2, 3, 2, 2), positive(r, 3), normal(r, 3)),
        lambda x, gamma, beta: batch_norm2d(x, gamma, beta)[0],
    ),
    "ops_fused.lstm_gates": lambda r: (
        (normal(r, 2, 8, 2, 2), normal(r, 2, 2, 2, 2)),
        lambda gates, c: sum(fused_lstm_gates(gates, c, 2)),
    ),
}


def test_every_op_has_a_case():
    assert set(CASES) | NOT_DIFFERENTIABLE == set(_OPS)


@pytest.mark.parametrize("name", sorted(CASES))
def test_gradcheck(name):
    rng = np.random.default_rng(0)
    leaves, fn = CASES[name](rng)
    out = fn(*leaves)
    upstream = rng.standard_normal(out.shape).astype(out.dtype)
    out.backward(upstream)
    for t in leaves:
        assert t.grad.dtype == np.float64
        numeric = numeric_gradient(
            lambda: np.sum(fn(*leaves).data * upstream, dtype=np.float64), t
        )
        assert_grad_close(t.grad, numeric, rtol=1e-3)
