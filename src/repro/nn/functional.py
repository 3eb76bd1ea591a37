"""Functional (stateless) neural-network operations."""

from __future__ import annotations

import numpy as np

from repro.tensor import Tensor
from repro.tensor.ops_conv import (  # noqa: F401  (re-exported)
    conv2d,
    conv_transpose2d,
    global_avg_pool2d,
    max_pool2d,
)
from repro.tensor.ops_fused import (  # noqa: F401  (re-exported)
    batch_norm2d,
    fused_linear,
    fused_lstm_gates,
)


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


def _class_indices(target, num_classes: int) -> np.ndarray:
    """``target`` as int64 class indices; ``ValueError`` unless every
    one is a whole number in ``[0, num_classes)``.  A cast alone would
    score ``-1`` as the last class, truncate ``1.5`` and turn NaN into
    ``INT64_MIN``."""
    values = np.asarray(target.data if isinstance(target, Tensor) else target)
    ok = values.size == 0 or (0 <= values.min() and values.max() < num_classes)
    indices = values.astype(np.int64) if ok else None
    if not ok or (values.dtype.kind not in "biu"
                  and not np.array_equal(indices, values)):
        raise ValueError(
            f"cross_entropy targets must be whole class indices in "
            f"[0, {num_classes}), got min {values.min()} max {values.max()}"
        )
    return indices


def cross_entropy(logits: Tensor, target) -> Tensor:
    """Mean cross entropy.  ``target`` holds integer class indices of
    shape matching ``logits`` minus the class axis (axis 1)."""
    if logits.ndim not in (2, 4):
        raise ValueError(f"unsupported logits rank {logits.ndim}")
    target_idx = _class_indices(target, logits.shape[1])
    logp = log_softmax(logits, axis=1)
    if logits.ndim == 2:
        picked = logp[np.arange(logits.shape[0]), target_idx]
    else:
        n, _, h, w = logits.shape
        ni, hi, wi = np.meshgrid(
            np.arange(n), np.arange(h), np.arange(w), indexing="ij"
        )
        picked = logp[ni, target_idx, hi, wi]
    return -picked.mean()
