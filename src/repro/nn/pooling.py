"""Pooling layers."""

from __future__ import annotations

from repro.nn import functional as F
from repro.nn.module import Module
from repro.tensor.ops_conv import check_pool_kernel


class MaxPool2d(Module):
    """Non-overlapping max pooling."""

    def __init__(self, kernel_size: int):
        super().__init__()
        check_pool_kernel(kernel_size)
        self.kernel_size = kernel_size

    def forward(self, x):
        return F.max_pool2d(x, self.kernel_size)

    def __repr__(self):
        return f"MaxPool2d(kernel_size={self.kernel_size})"


class GlobalAvgPool2d(Module):
    """Spatial global average pooling: (N, C, H, W) -> (N, C)."""

    def forward(self, x):
        return F.global_avg_pool2d(x)
