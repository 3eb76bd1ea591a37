"""Periodical CNN: the paper's simplest periodical-representation
model — a shallow CNN over the concatenated closeness / period / trend
channel stacks, without residual learning or fusion weights.  Serves
as the weak baseline in Tables IV and V.
"""

from __future__ import annotations

from repro import nn


class PeriodicalCNN(nn.Module):
    """A plain CNN over concatenated periodical features.

    Inputs follow the periodical representation (Listing 5): three
    (N, len*C, H, W) stacks.  Output is the next frame (N, C, H, W).
    """

    def __init__(
        self,
        len_closeness: int,
        len_period: int,
        len_trend: int,
        nb_channels: int,
        hidden_channels: int = 16,
        rng=None,
    ):
        super().__init__()
        self.nb_channels = nb_channels
        in_channels = (len_closeness + len_period + len_trend) * nb_channels
        self.body = nn.Sequential(
            nn.Conv2d(in_channels, hidden_channels, 3, padding=1, rng=rng),
            nn.ReLU(),
            nn.Conv2d(hidden_channels, nb_channels, 3, padding=1, rng=rng),
        )

    def forward(self, x_closeness, x_period, x_trend):
        # The stacks go straight into the first conv's padded input.
        return self.body((x_closeness, x_period, x_trend))
