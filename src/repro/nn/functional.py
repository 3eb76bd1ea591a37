"""Functional (stateless) neural-network operations."""

from __future__ import annotations

import numpy as np

from repro.tensor import Tensor, concatenate
from repro.tensor.ops_conv import (  # noqa: F401  (re-exported)
    avg_pool2d,
    conv2d,
    conv_transpose2d,
    global_avg_pool2d,
    max_pool2d,
    upsample_nearest2d,
)
from repro.tensor.ops_fused import (  # noqa: F401  (re-exported)
    batch_norm2d,
    fused_linear,
    fused_lstm_gates,
)


def relu(x: Tensor) -> Tensor:
    return x.relu()


def leaky_relu(x: Tensor, negative_slope: float = 0.01) -> Tensor:
    mask = x.data > 0
    scale = mask + negative_slope * np.logical_not(mask)
    data = x.data * scale

    def backward(grad):
        x._accumulate(grad * scale)

    return Tensor._make(data, (x,), backward)


def sigmoid(x: Tensor) -> Tensor:
    return x.sigmoid()


def tanh(x: Tensor) -> Tensor:
    return x.tanh()


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """``x @ weight.T + bias`` with weight of shape (out, in).

    One fused autograd node (:func:`repro.tensor.ops_fused.fused_linear`)
    instead of the matmul/transpose/add composition."""
    return fused_linear(x, weight, bias)


def dropout(x: Tensor, p: float, training: bool, rng=None) -> Tensor:
    if not training or p <= 0.0:
        return x
    from repro.tensor.trace import notify_trace_unsafe
    from repro.utils.rng import default_rng

    # A trace would bake this step's random mask into every replay.
    notify_trace_unsafe("dropout draws a fresh RNG mask per step")
    gen = default_rng(rng)
    keep = 1.0 - p
    mask = (gen.random(x.shape) < keep).astype(x.data.dtype) / keep
    return x * Tensor(mask)


def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    diff = pred - (target if isinstance(target, Tensor) else Tensor(target))
    return (diff * diff).mean()


def l1_loss(pred: Tensor, target: Tensor) -> Tensor:
    diff = pred - (target if isinstance(target, Tensor) else Tensor(target))
    return diff.abs().mean()


def cross_entropy(logits: Tensor, target) -> Tensor:
    """Mean cross entropy.  ``target`` holds integer class indices of
    shape matching ``logits`` minus the class axis (axis 1)."""
    target_idx = np.asarray(target.data if isinstance(target, Tensor) else target)
    target_idx = target_idx.astype(np.int64)
    logp = log_softmax(logits, axis=1)
    if logits.ndim == 2:
        picked = logp[np.arange(logits.shape[0]), target_idx]
    elif logits.ndim == 4:
        n, _, h, w = logits.shape
        ni, hi, wi = np.meshgrid(
            np.arange(n), np.arange(h), np.arange(w), indexing="ij"
        )
        picked = logp[ni, target_idx, hi, wi]
    else:
        raise ValueError(f"unsupported logits rank {logits.ndim}")
    return -picked.mean()


def bce_with_logits(logits: Tensor, target: Tensor) -> Tensor:
    """Numerically-stable binary cross entropy on logits."""
    t = target if isinstance(target, Tensor) else Tensor(target)
    # max(x, 0) - x*t + log(1 + exp(-|x|))
    relu_x = logits.relu()
    abs_x = logits.abs()
    softplus = ((-abs_x).exp() + 1.0).log()
    return (relu_x - logits * t + softplus).mean()


def one_hot(indices: np.ndarray, num_classes: int) -> np.ndarray:
    """Integer index array -> one-hot float32 array (extra last axis)."""
    indices = np.asarray(indices, dtype=np.int64)
    out = np.zeros(indices.shape + (num_classes,), dtype=np.float32)
    np.put_along_axis(out, indices[..., None], 1.0, axis=-1)
    return out


def pad2d(x: Tensor, pad_h: int, pad_w: int) -> Tensor:
    return x.pad2d(pad_h, pad_w)


def cat(tensors, axis: int = 0) -> Tensor:
    return concatenate(tensors, axis=axis)
