"""DeepSTN+ (Lin et al., AAAI 2019).

Key ideas reproduced from the original architecture:

- **early fusion**: closeness / period / trend stacks are fused by a
  1x1 convolution *before* the deep trunk (vs ST-ResNet's late fusion);
- **ConvPlus blocks**: every block augments a local 3x3 convolution
  with a global pathway (pooled features re-broadcast over the grid),
  capturing the long-range dependence the paper credits for DeepSTN+'s
  wins;
- **semantic context (PoI) maps**: the original injects
  point-of-interest maps that give each cell a location-specific
  prior; lacking PoI data, the maps are *learned* spatial embeddings
  concatenated to the fused input;
- optional **external features** entering through an MLP.
"""

from __future__ import annotations

import numpy as np

from repro import nn
from repro.nn.module import Parameter
from repro.tensor import Tensor


class ConvPlus(nn.Module):
    """Local conv + global (pool -> fc -> broadcast) pathway."""

    def __init__(self, in_channels: int, out_channels: int, rng=None):
        super().__init__()
        self.local = nn.Conv2d(in_channels, out_channels, 3, padding=1, rng=rng)
        self.global_fc = nn.Linear(in_channels, out_channels, rng=rng)
        self.pool = nn.GlobalAvgPool2d()

    def forward(self, x):
        local = self.local(x)
        pooled = self.pool(x)  # (N, C)
        glob = self.global_fc(pooled)  # (N, out)
        return local + glob.reshape(glob.shape[0], glob.shape[1], 1, 1)


class _ConvPlusResidual(nn.Module):
    """Pre-activation residual block of two ConvPlus layers."""

    def __init__(self, channels: int, rng=None):
        super().__init__()
        self.conv1 = ConvPlus(channels, channels, rng=rng)
        self.conv2 = ConvPlus(channels, channels, rng=rng)

    def forward(self, x):
        out = self.conv1(x.relu())
        out = self.conv2(out.relu())
        return x + out


class DeepSTNPlus(nn.Module):
    """Context-aware spatial-temporal network for crowd flow.

    Inputs follow the periodical representation; output is the next
    frame (N, nb_channels, H, W).
    """

    def __init__(
        self,
        len_closeness: int = 3,
        len_period: int = 4,
        len_trend: int = 4,
        nb_channels: int = 2,
        grid_height: int = 32,
        grid_width: int = 32,
        nb_filters: int = 32,
        nb_blocks: int = 2,
        context_channels: int = 4,
        external_dim: int | None = None,
        rng=None,
    ):
        super().__init__()
        self.nb_channels = nb_channels
        in_channels = (len_closeness + len_period + len_trend) * nb_channels
        # Learned PoI/semantic maps: per-cell context priors.
        self.context = Parameter(
            0.01
            * np.random.default_rng(0).standard_normal(
                (context_channels, grid_height, grid_width)
            ).astype(np.float32)
        )
        self.early_fusion = nn.Conv2d(
            in_channels + context_channels, nb_filters, 1, rng=rng
        )
        self.blocks = nn.ModuleList(
            [_ConvPlusResidual(nb_filters, rng=rng) for _ in range(nb_blocks)]
        )
        self.head = nn.Conv2d(
            nb_filters, nb_channels, 3, padding=1, rng=rng,
            input_activation="relu",
        )
        # Per-cell affine output calibration (the role the PoI-weighted
        # output fusion plays in the original network).
        self.out_weight = Parameter(
            np.ones((nb_channels, grid_height, grid_width), dtype=np.float32)
        )
        self.out_bias = Parameter(
            np.zeros((nb_channels, grid_height, grid_width), dtype=np.float32)
        )
        self.external_dim = external_dim
        if external_dim:
            self.external = nn.Sequential(
                nn.Linear(external_dim, nb_filters, rng=rng),
                nn.ReLU(),
                nn.Linear(nb_filters, nb_filters, rng=rng),
            )

    def forward(self, x_closeness, x_period, x_trend, external=None):
        n = x_closeness.shape[0]
        ctx = self.context.reshape(1, *self.context.shape)
        ones = Tensor(np.ones((n, 1, 1, 1), dtype=np.float32))
        ctx = ctx * ones  # broadcast the context maps over the batch
        # The four stacks go straight into the fusion conv's input buffer.
        x = self.early_fusion((x_closeness, x_period, x_trend, ctx))
        if self.external_dim:
            if external is None:
                raise ValueError(
                    "model was built with external_dim but no external "
                    "features were passed"
                )
            ext = self.external(external)
            x = x + ext.reshape(ext.shape[0], ext.shape[1], 1, 1)
        for block in self.blocks:
            x = block(x)
        out = self.head(x).tanh()
        return out * self.out_weight + self.out_bias
