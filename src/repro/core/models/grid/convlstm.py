"""The ConvLSTM forecasting model (Shi et al., NIPS 2015).

An encoder stack of ConvLSTM layers reads the history window one step
at a time; only the final hidden state is kept, and a 1x1 convolution
decodes it into the predicted frame(s).  Uses the *sequential*
representation (Listing 3).
"""

from __future__ import annotations

from repro import nn
from repro.tensor import Tensor, stack


class ConvLSTMModel(nn.Module):
    """Sequence-to-frame(s) ConvLSTM.

    Input: (N, T, C, H, W) history.  Output: (N, C, H, W) when
    ``prediction_length == 1`` else (N, P, C, H, W).
    """

    def __init__(
        self,
        in_channels: int,
        hidden_channels=(16,),
        kernel_size: int = 3,
        prediction_length: int = 1,
        rng=None,
    ):
        super().__init__()
        if isinstance(hidden_channels, int):
            hidden_channels = (hidden_channels,)
        self.prediction_length = prediction_length
        self.encoder = nn.ConvLSTM(
            in_channels, list(hidden_channels), kernel_size, rng=rng
        )
        self.head = nn.Conv2d(
            hidden_channels[-1], in_channels * prediction_length, 1, rng=rng
        )
        self.in_channels = in_channels

    def forward(self, x: Tensor):
        for last_hidden in self.encoder.unroll(x):  # (N, hidden, H, W)
            pass
        out = self.head(last_hidden)  # (N, P*C, H, W)
        if self.prediction_length == 1:
            return out
        n, _, h, w = out.shape
        frames = [
            out[:, p * self.in_channels : (p + 1) * self.in_channels]
            for p in range(self.prediction_length)
        ]
        return stack(frames, axis=1)
