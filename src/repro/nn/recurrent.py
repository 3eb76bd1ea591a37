"""The convolutional LSTM of Shi et al. (NIPS 2015), the building
block of the paper's ConvLSTM model.

The cell applies its gates through the fused kernel
(:func:`repro.tensor.ops_fused.fused_lstm_gates`): one packed
activation pass and two graph nodes per step instead of thirteen.
The chain of elementwise autograd ops it replaces is
``tests/tensor_oracle.py::oracle_lstm_gates``; the two agree bit for
bit in values and gradients (``tests/property/test_property_fused.py``).
"""

from __future__ import annotations

from repro.nn.conv import Conv2d
from repro.nn.module import Module
from repro.tensor import Tensor, stack, zeros
from repro.tensor.ops_fused import fused_lstm_gates


class ConvLSTMCell(Module):
    """Convolutional LSTM cell: all gate transforms are convolutions,
    so the state keeps its (N, hidden, H, W) spatial layout."""

    def __init__(
        self,
        in_channels: int,
        hidden_channels: int,
        kernel_size: int = 3,
        rng=None,
    ):
        super().__init__()
        if kernel_size % 2 == 0:
            raise ValueError("kernel_size must be odd to preserve spatial size")
        self.in_channels = in_channels
        self.hidden_channels = hidden_channels
        self.gates = Conv2d(
            in_channels + hidden_channels,
            4 * hidden_channels,
            kernel_size,
            padding=kernel_size // 2,
            rng=rng,
        )

    def init_state(self, batch_size: int, height: int, width: int):
        shape = (batch_size, self.hidden_channels, height, width)
        return zeros(shape), zeros(shape)

    def forward(self, x, state=None):
        if state is None:
            state = self.init_state(x.shape[0], x.shape[2], x.shape[3])
        h, c = state
        gates = self.gates((x, h))  # written straight into the padded input
        h_next, c_next = fused_lstm_gates(gates, c, self.hidden_channels)
        return h_next, (h_next, c_next)


class ConvLSTM(Module):
    """Multi-layer ConvLSTM unrolled over a (N, T, C, H, W) sequence.

    Returns the sequence of top-layer hidden states stacked on the time
    axis: (N, T, hidden, H, W).  A caller that reads only the last
    state iterates :meth:`unroll` instead and keeps one frame.
    """

    def __init__(
        self,
        in_channels: int,
        hidden_channels,
        kernel_size: int = 3,
        rng=None,
    ):
        super().__init__()
        if isinstance(hidden_channels, int):
            hidden_channels = [hidden_channels]
        from repro.nn.container import ModuleList

        cells = []
        channels = in_channels
        for hidden in hidden_channels:
            cells.append(ConvLSTMCell(channels, hidden, kernel_size, rng=rng))
            channels = hidden
        self.cells = ModuleList(cells)
        self.hidden_channels = list(hidden_channels)

    def unroll(self, x: Tensor):
        """Yield the top layer's (N, hidden, H, W) hidden state after
        each of the T steps; every layer carries only its current
        ``(h, c)`` from one step to the next."""
        if x.ndim != 5:
            raise ValueError(
                f"ConvLSTM expects (N, T, C, H, W) input, got rank {x.ndim}"
            )
        if x.shape[1] == 0:
            raise ValueError("ConvLSTM needs at least one time step")
        states = [None] * len(self.cells)
        for step in range(x.shape[1]):
            frame = x[:, step]
            for layer, cell in enumerate(self.cells):
                frame, states[layer] = cell(frame, states[layer])
            yield frame

    def forward(self, x: Tensor):
        return stack(list(self.unroll(x)), axis=1)
