"""ST-ResNet (Zhang, Zheng & Qi, AAAI 2017).

Three identical residual-CNN branches process the closeness, period,
and trend stacks; branch outputs are fused with learned per-pixel
weight maps; optional external features enter through a small MLP.
Output passes through tanh (the original trains on [-1, 1]-scaled
data; here data is [0, 1] so a sigmoid-free linear head would also
work — tanh is kept and the trainer handles scaling).
"""

from __future__ import annotations

import numpy as np

from repro import nn
from repro.nn.module import Parameter
from repro.tensor import Tensor


class _ResidualUnit(nn.Module):
    """relu-conv-relu-conv with identity shortcut.  Each ReLU is the
    conv's input activation: it is written into the conv's padded input
    buffer, so no ReLU output or mask is kept."""

    def __init__(self, channels: int, rng=None):
        super().__init__()
        make = lambda: nn.Conv2d(
            channels, channels, 3, padding=1, rng=rng, input_activation="relu"
        )
        self.conv1 = make()
        self.conv2 = make()

    def forward(self, x):
        return x + self.conv2(self.conv1(x))


class _Branch(nn.Module):
    """conv -> L residual units -> relu-conv."""

    def __init__(self, in_channels, nb_filters, out_channels, nb_residual, rng=None):
        super().__init__()
        self.head = nn.Conv2d(in_channels, nb_filters, 3, padding=1, rng=rng)
        self.residuals = nn.ModuleList(
            [_ResidualUnit(nb_filters, rng=rng) for _ in range(nb_residual)]
        )
        self.tail = nn.Conv2d(
            nb_filters, out_channels, 3, padding=1, rng=rng,
            input_activation="relu",
        )

    def forward(self, x):
        x = self.head(x)
        for unit in self.residuals:
            x = unit(x)
        return self.tail(x)


class STResNet(nn.Module):
    """Deep spatio-temporal residual network.

    Parameters
    ----------
    len_closeness, len_period, len_trend:
        Stack lengths of the periodical representation.
    nb_channels:
        Flow channels per frame (paper: 2 = in/out flow).
    grid_height, grid_width:
        Spatial size (needed for the fusion weight maps).
    external_dim:
        Size of the external feature vector, or None (Listing 5).
    """

    def __init__(
        self,
        len_closeness: int = 3,
        len_period: int = 4,
        len_trend: int = 4,
        nb_channels: int = 2,
        grid_height: int = 32,
        grid_width: int = 32,
        nb_residual_units: int = 2,
        nb_filters: int = 16,
        external_dim: int | None = None,
        rng=None,
    ):
        super().__init__()
        self.nb_channels = nb_channels
        make = lambda length: _Branch(
            length * nb_channels, nb_filters, nb_channels, nb_residual_units, rng=rng
        )
        self.closeness_branch = make(len_closeness)
        self.period_branch = make(len_period)
        self.trend_branch = make(len_trend)

        shape = (nb_channels, grid_height, grid_width)
        self.w_closeness = Parameter(np.ones(shape, dtype=np.float32))
        self.w_period = Parameter(np.full(shape, 0.5, dtype=np.float32))
        self.w_trend = Parameter(np.full(shape, 0.5, dtype=np.float32))

        self.external_dim = external_dim
        if external_dim:
            hidden = max(8, nb_channels * 4)
            self.external = nn.Sequential(
                nn.Linear(external_dim, hidden, rng=rng),
                nn.ReLU(),
                nn.Linear(hidden, nb_channels * grid_height * grid_width, rng=rng),
            )
        self._out_shape = shape

    def forward(self, x_closeness, x_period, x_trend, external=None):
        fused = (
            self.w_closeness * self.closeness_branch(x_closeness)
            + self.w_period * self.period_branch(x_period)
            + self.w_trend * self.trend_branch(x_trend)
        )
        if self.external_dim:
            if external is None:
                raise ValueError(
                    "model was built with external_dim but no external "
                    "features were passed"
                )
            ext = self.external(external)
            fused = fused + ext.reshape(-1, *self._out_shape)
        return fused.tanh()
