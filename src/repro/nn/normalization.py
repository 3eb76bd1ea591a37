"""Normalization layers."""

from __future__ import annotations

from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.tensor import Tensor
from repro.tensor.ops_fused import batch_norm2d


class BatchNorm2d(Module):
    """Batch normalization over NCHW tensors (per-channel statistics).

    In training mode, batch statistics normalize the input (one
    :func:`~repro.tensor.ops_fused.batch_norm2d` node) and update
    exponential running statistics; in eval mode, running statistics
    are used instead, as constants in composed tensor arithmetic.
    """

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = Parameter(init.ones(num_features))
        self.bias = Parameter(init.zeros(num_features))
        self.running_mean = Tensor(init.zeros(num_features))
        self.running_var = Tensor(init.ones(num_features))

    def forward(self, x):
        if x.ndim != 4:
            raise ValueError(f"BatchNorm2d expects NCHW input, got rank {x.ndim}")
        if x.shape[1] != self.num_features:
            raise ValueError(
                f"expected {self.num_features} channels, got {x.shape[1]}"
            )
        if self.training:
            from repro.tensor.trace import notify_trace_unsafe

            # Running statistics mutate per step; a replayed program
            # would neither update nor observe them.
            notify_trace_unsafe("BatchNorm2d updates running stats per step")
            out, mean, var = batch_norm2d(x, self.weight, self.bias, self.eps)
            m = self.momentum
            for buf, stat in ((self.running_mean, mean), (self.running_var, var)):
                # The kernel's statistics follow the input dtype; the
                # running ones keep theirs (float32) whatever comes in.
                buf.data = ((1 - m) * buf.data + m * stat).astype(
                    buf.data.dtype, copy=False
                )
            return out
        mean = Tensor(self.running_mean.data.reshape(1, -1, 1, 1))
        var = Tensor(self.running_var.data.reshape(1, -1, 1, 1))
        inv_std = (var + self.eps) ** -0.5
        normed = (x - mean) * inv_std
        gamma = self.weight.reshape(1, -1, 1, 1)
        beta = self.bias.reshape(1, -1, 1, 1)
        return normed * gamma + beta

    def __repr__(self):
        return f"BatchNorm2d({self.num_features}, eps={self.eps})"
