"""Reference formulations of the batch-norm and 2-D window ops.

These are the forms ``repro.tensor`` / ``repro.nn`` ran before
``ops_fused.batch_norm2d`` and the strided-tap pooling kernels replaced
them: batch norm composed from ``mean`` / ``var`` / ``** -0.5`` and
broadcast arithmetic (~16 autograd nodes), and pooling as a two-axis
reduce over the ``(N, C, OH, k, OW, k)`` block view.  The library no
longer calls them; the unit tests hold the kernels to them — max
pooling bit for bit (it only selects values), the others to float32
tolerance (they sum in a different order).
"""

from __future__ import annotations

import numpy as np

from repro.tensor import Tensor


def oracle_batch_norm2d(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5):
    """``(out, mean, var)`` of training-mode batch norm over NCHW,
    composed from differentiable tensor ops; ``mean`` / ``var`` are the
    ``(C,)`` batch statistics (biased variance)."""
    mean = x.mean(axis=(0, 2, 3), keepdims=True)
    var = x.var(axis=(0, 2, 3), keepdims=True)
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


def oracle_avg_pool2d(x: Tensor, kernel: int) -> Tensor:
    """Non-overlapping average pooling."""
    out = _blocks(x.data, kernel).mean(axis=(3, 5))

    def backward(grad):
        g = np.broadcast_to(
            grad[:, :, :, None, :, None] / (kernel * kernel),
            _blocks(x.data, kernel).shape,
        )
        x._accumulate(g.reshape(x.shape).copy())

    return Tensor._make(out, (x,), backward)


def oracle_upsample_nearest2d(x: Tensor, scale: int) -> Tensor:
    """Nearest-neighbour upsampling; backward sums each block."""
    out = np.repeat(np.repeat(x.data, scale, axis=2), scale, axis=3)

    def backward(grad):
        x._accumulate(_blocks(grad, scale).sum(axis=(3, 5)))

    return Tensor._make(out, (x,), backward)
