"""Reference formulations of the kernels ``repro.tensor`` /
``repro.nn`` / ``repro.optim`` run as one fused piece.

**LSTM gates and optimizer steps** (bottom of the file): the six-node
elementwise gate tail ``ConvLSTMCell`` ran before
``ops_fused.fused_lstm_gates``, and the per-parameter Adam loop that
allocates a fresh array per update.  ``test_property_fused.py``
holds the library to them bit for bit.

**Convolution** (``oracle_conv_forward`` / ``oracle_conv_dw``): the
accelerated conv kernels before the forward ran in image tiles and the
weight gradient took the ``cols @ grad_fm.T`` orientation — one
im2col and one gemm over every column.
``tests/property/test_property_conv_tiles.py`` holds the library to
them bit for bit.

**Batch norm and 2-D window ops:**

These are the forms ``repro.tensor`` / ``repro.nn`` ran before
``ops_fused.batch_norm2d`` and the strided-tap pooling kernel replaced
them: batch norm composed from ``mean`` / variance / ``** -0.5`` and
broadcast arithmetic (~16 autograd nodes), and max pooling as a
two-axis reduce over the ``(N, C, OH, k, OW, k)`` block view.  The
library no longer calls them; the unit tests hold the kernels to them —
max pooling bit for bit (it only selects values), batch norm to
float32 tolerance (it sums in a different order).
"""

from __future__ import annotations

import numpy as np

from repro.tensor import Tensor
from repro.tensor.ops_conv import im2col
from repro.tensor.ops_fused import _logistic_in_place


def oracle_conv_forward(xp, w, bias, stride, out, cols, fm, mask=None) -> None:
    """``out`` ``(N, F, OH, OW)`` = ``w`` correlated with ``xp`` (+
    ``bias``; ReLU'd when ``mask`` is given, which receives ``out > 0``),
    through one im2col into all of ``cols`` and one gemm into all of
    ``fm``."""
    f, _, kh, kw = w.shape
    n, _, oh, ow = out.shape
    im2col(xp, kh, kw, stride, oh, ow, cols)
    np.dot(w.reshape(f, -1), cols, out=fm)
    fm4 = fm.reshape(f, n, oh, ow).transpose(1, 0, 2, 3)
    if bias is None:
        np.copyto(out, fm4)
    else:
        np.add(fm4, bias.reshape(1, f, 1, 1), out=out)
    if mask is not None:
        np.greater(out, 0, out=mask)
        np.multiply(out, mask, out=out)


def oracle_conv_dw(gfm, cols, w_shape) -> np.ndarray:
    """Weight gradient ``gfm @ cols.T`` in ``(F, C, KH, KW)`` order."""
    dw = np.empty(w_shape, cols.dtype)
    np.dot(gfm, cols.T, out=dw.reshape(w_shape[0], -1))
    return dw


def oracle_batch_norm2d(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5):
    """``(out, mean, var)`` of training-mode batch norm over NCHW,
    composed from differentiable tensor ops; ``mean`` / ``var`` are the
    ``(C,)`` batch statistics (biased variance)."""
    mean = x.mean(axis=(0, 2, 3), keepdims=True)
    centered = x - mean
    var = (centered * centered).mean(axis=(0, 2, 3), keepdims=True)
    inv_std = (var + eps) ** -0.5
    normed = (x - mean) * inv_std
    out = normed * gamma.reshape(1, -1, 1, 1) + beta.reshape(1, -1, 1, 1)
    return out, mean.data.reshape(-1), var.data.reshape(-1)


def _blocks(a: np.ndarray, k: int) -> np.ndarray:
    n, c, h, w = a.shape
    return a.reshape(n, c, h // k, k, w // k, k)


def oracle_max_pool2d(x: Tensor, kernel: int) -> Tensor:
    """Non-overlapping max pooling; tied maxima split the gradient."""
    blocks = _blocks(x.data, kernel)
    out = blocks.max(axis=(3, 5))

    def backward(grad):
        mask = blocks == out[:, :, :, None, :, None]
        counts = mask.sum(axis=(3, 5), keepdims=True)
        g = grad[:, :, :, None, :, None] * mask / counts
        x._accumulate(g.reshape(x.shape))

    return Tensor._make(out, (x,), backward)


def _sigmoid(x: Tensor) -> Tensor:
    """The logistic as its own autograd node (the tensor op the fused
    gate kernel replaced)."""
    data = x.data.copy()
    _logistic_in_place(data, np.empty(data.shape, data.dtype),
                       np.empty(data.shape, np.bool_))

    def backward(grad):
        x._accumulate(grad * data * (1.0 - data), donate=True)

    return Tensor._make(data, (x,), backward)


def oracle_lstm_gates(gates: Tensor, c_prev: Tensor, hidden: int):
    """``(h_next, c_next)`` from packed ``[i | f | g | o]`` gate
    pre-activations (axis 1), as a chain of elementwise autograd ops."""
    i = _sigmoid(gates[:, 0 * hidden : 1 * hidden])
    f = _sigmoid(gates[:, 1 * hidden : 2 * hidden])
    g = gates[:, 2 * hidden : 3 * hidden].tanh()
    o = _sigmoid(gates[:, 3 * hidden : 4 * hidden])
    c_next = f * c_prev + i * g
    h_next = o * c_next.tanh()
    return h_next, c_next


def oracle_adam_step(
    data, grads, m, v, t, lr, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0
):
    """Step ``t`` (1-based) of Adam over parallel lists of arrays;
    ``data`` / ``m`` / ``v`` entries are replaced by fresh arrays, a
    parameter whose gradient is ``None`` is skipped."""
    b1, b2 = betas
    bias1 = 1.0 - b1**t
    bias2 = 1.0 - b2**t
    for i, grad in enumerate(grads):
        if grad is None:
            continue
        if weight_decay:
            grad = grad + weight_decay * data[i]
        m[i] = b1 * m[i] + (1 - b1) * grad
        v[i] = b2 * v[i] + (1 - b2) * grad * grad
        m_hat = m[i] / bias1
        v_hat = v[i] / bias2
        data[i] = data[i] - lr * m_hat / (np.sqrt(v_hat) + eps)
