"""Convolution layers."""

from __future__ import annotations

from repro.nn import functional as F
from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.tensor.ops_conv import check_conv_args
from repro.utils.rng import default_rng
from repro.utils.validation import check_positive


class Conv2d(Module):
    """2D convolution over NCHW tensors.

    ``forward`` takes one tensor or a sequence of tensors whose channels
    sum to ``in_channels`` (written straight into the conv's input
    buffer, no concatenated array).  ``input_activation="relu"`` applies
    a ReLU to the input as it is written there, ``activation="relu"``
    one to the output; see :func:`repro.tensor.ops_conv.conv2d`."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng=None,
        activation: str | None = None,
        input_activation: str | None = None,
    ):
        super().__init__()
        check_positive(in_channels, "in_channels")
        check_positive(out_channels, "out_channels")
        check_positive(kernel_size, "kernel_size")
        check_conv_args(stride, padding, activation, input_activation)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.activation = activation
        self.input_activation = input_activation
        gen = default_rng(rng, label="conv2d")
        self.weight = Parameter(
            init.kaiming_uniform(
                (out_channels, in_channels, kernel_size, kernel_size), rng=gen
            )
        )
        self.bias = Parameter(init.zeros(out_channels)) if bias else None

    def forward(self, x):
        return F.conv2d(
            x,
            self.weight,
            self.bias,
            stride=self.stride,
            padding=self.padding,
            activation=self.activation,
            input_activation=self.input_activation,
        )

    def __repr__(self):
        return (
            f"Conv2d({self.in_channels}, {self.out_channels}, "
            f"kernel_size={self.kernel_size}, stride={self.stride}, "
            f"padding={self.padding})"
        )


class ConvTranspose2d(Module):
    """2D transposed convolution (upsampling)."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng=None,
    ):
        super().__init__()
        check_positive(in_channels, "in_channels")
        check_positive(out_channels, "out_channels")
        check_positive(kernel_size, "kernel_size")
        check_conv_args(stride, padding)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        gen = default_rng(rng, label="conv_transpose2d")
        self.weight = Parameter(
            init.kaiming_uniform(
                (in_channels, out_channels, kernel_size, kernel_size), rng=gen
            )
        )
        self.bias = Parameter(init.zeros(out_channels)) if bias else None

    def forward(self, x):
        return F.conv_transpose2d(
            x, self.weight, self.bias, stride=self.stride, padding=self.padding
        )

    def __repr__(self):
        return (
            f"ConvTranspose2d({self.in_channels}, {self.out_channels}, "
            f"kernel_size={self.kernel_size}, stride={self.stride}, "
            f"padding={self.padding})"
        )
