"""Property-based tests: a replayed traced step is *bit-identical* to
the eager step it recorded — loss values, parameter gradients, and
optimizer-updated parameters — for arbitrary shapes and seeds, across
three model families (recurrent cells, ConvLSTM with the conv2d and
fused gate kernels, conv2d followed by ReLU)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.nn import functional as F
from repro.optim import Adam
from repro.tensor import Tensor, TraceSession, concatenate, zeros
from repro.tensor.ops_fused import fused_lstm_gates


def _train_eager(model, batches, lr):
    opt = Adam(list(model.parameters()), lr=lr)
    losses = []
    for x, y in batches:
        opt.zero_grad()
        loss = F.mse_loss(model(x), y)
        loss.backward(free_graph=True)
        losses.append(loss.item())
        opt.step()
    return losses


def _train_traced(model, batches, lr):
    opt = Adam(list(model.parameters()), lr=lr)
    session = TraceSession(model, F.mse_loss)
    losses = []
    for x, y in batches:
        opt.zero_grad()
        losses.append(session.step(x if isinstance(x, tuple) else (x,), y))
        opt.step()
    return losses, session


def _assert_identical(seed, make_model, make_batch, steps, lr=0.05):
    rng = np.random.default_rng(seed)
    eager_model = make_model(seed)
    traced_model = make_model(seed)
    for p, q in zip(eager_model.parameters(), traced_model.parameters()):
        assert np.array_equal(p.data, q.data)
    batches = [make_batch(rng) for _ in range(steps)]
    eager_losses = _train_eager(eager_model, batches, lr)
    traced_losses, session = _train_traced(traced_model, batches, lr)
    assert eager_losses == traced_losses
    for p, q in zip(eager_model.parameters(), traced_model.parameters()):
        assert np.array_equal(p.data, q.data)
        assert (p.grad is None) == (q.grad is None)
        if p.grad is not None:
            assert np.array_equal(p.grad, q.grad)
    stats = session.stats()
    assert stats["captures"] == 1
    assert stats["replays"] == steps - 1
    return stats


# ----------------------------------------------------------------------
# an unrolled LSTM over flat features (Linear gates + fused gate tail)
# ----------------------------------------------------------------------
@settings(max_examples=10, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),   # batch
    st.integers(min_value=1, max_value=5),   # input features
    st.integers(min_value=1, max_value=5),   # hidden
    st.integers(min_value=1, max_value=4),   # timesteps
    st.integers(min_value=2, max_value=4),   # training steps
    st.integers(min_value=0, max_value=9999),
)
def test_traced_lstm_is_bit_identical(batch, nin, hidden, tsteps, steps, seed):
    class StepLSTM(nn.Module):
        def __init__(self, s):
            super().__init__()
            self.gates = nn.Linear(
                nin + hidden, 4 * hidden, rng=np.random.default_rng(s)
            )
            self.head = nn.Linear(hidden, 2, rng=np.random.default_rng(s + 1))

        def forward(self, x):
            h, c = zeros((x.shape[0], hidden)), zeros((x.shape[0], hidden))
            for t in range(x.shape[1]):
                gates = self.gates(concatenate([x[:, t], h], axis=1))
                h, c = fused_lstm_gates(gates, c, hidden)
            return self.head(h)

    def make_batch(rng):
        return (
            Tensor(rng.standard_normal((batch, tsteps, nin)).astype(np.float32)),
            Tensor(rng.standard_normal((batch, 2)).astype(np.float32)),
        )

    _assert_identical(seed, StepLSTM, make_batch, steps)


# ----------------------------------------------------------------------
# ConvLSTM (conv2d + fused_lstm_gates kernels)
# ----------------------------------------------------------------------
@settings(max_examples=10, deadline=None)
@given(
    st.integers(min_value=1, max_value=2),   # batch
    st.integers(min_value=1, max_value=3),   # input channels
    st.integers(min_value=1, max_value=4),   # hidden channels
    st.integers(min_value=2, max_value=4),   # timesteps
    st.integers(min_value=4, max_value=8),   # spatial size
    st.integers(min_value=0, max_value=9999),
)
def test_traced_convlstm_is_bit_identical(batch, cin, hid, tsteps, hw, seed):
    def make_model(s):
        rng = np.random.default_rng(s)
        model = nn.ConvLSTM(cin, [hid], 3)
        for p in model.parameters():
            p.data = (rng.standard_normal(p.shape) * 0.1).astype(np.float32)
        return model

    def make_batch(rng):
        return (
            Tensor(
                rng.standard_normal((batch, tsteps, cin, hw, hw)).astype(
                    np.float32
                )
            ),
            Tensor(
                rng.standard_normal((batch, tsteps, hid, hw, hw)).astype(
                    np.float32
                )
            ),
        )

    _assert_identical(seed, make_model, make_batch, steps=3)


# ----------------------------------------------------------------------
# conv2d + ReLU
# ----------------------------------------------------------------------
@settings(max_examples=10, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),   # batch
    st.integers(min_value=1, max_value=3),   # input channels
    st.integers(min_value=1, max_value=4),   # mid channels
    st.integers(min_value=4, max_value=8),   # spatial size
    st.integers(min_value=0, max_value=9999),
)
def test_traced_conv_relu_is_bit_identical(batch, cin, mid, hw, seed):
    class ConvNet(nn.Module):
        def __init__(self, s):
            super().__init__()
            rng = np.random.default_rng(s)
            self.c1 = nn.Conv2d(cin, mid, 3, padding=1, rng=rng)
            self.c2 = nn.Conv2d(mid, cin, 3, padding=1, rng=rng)

        def forward(self, x):
            return self.c2(self.c1(x).relu())

    def make_batch(rng):
        return (
            Tensor(rng.standard_normal((batch, cin, hw, hw)).astype(np.float32)),
            Tensor(rng.standard_normal((batch, cin, hw, hw)).astype(np.float32)),
        )

    _assert_identical(seed, ConvNet, make_batch, steps=3)
