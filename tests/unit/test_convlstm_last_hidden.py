"""``ConvLSTMModel`` keeps one hidden state: it steps its encoder with
``nn.ConvLSTM.unroll`` and decodes the last frame, where it used to
stack all T frames and slice the last one out.  The stacked form,
``head(nn.ConvLSTM(...)(x)[:, -1])`` with the same weights, is the
reference: outputs, every parameter gradient and a few trained steps
must match it bit for bit.  ``check.sh`` runs this file again under
``REPRO_TRACE=1``, where ``Trainer.fit`` replays a recorded tape.
"""

import numpy as np
import pytest

from repro import nn
from repro.core.models.grid import ConvLSTMModel
from repro.core.training import Trainer, sequential_batch
from repro.nn import MSELoss
from repro.optim import Adam
from repro.tensor import Tensor
from repro.tensor import pool as pool_module
from repro.tensor.pool import ArrayPool

N, T, C, H, W = 3, 4, 2, 6, 5
HIDDEN = [(4,), (3, 4)]


class Stacked(nn.Module):
    """The model's old forward: decode the last frame of the stacked
    (N, T, hidden, H, W) hidden sequence."""

    def __init__(self, model: ConvLSTMModel):
        super().__init__()
        self.encoder = model.encoder
        self.head = model.head

    def forward(self, x):
        return self.head(self.encoder(x)[:, -1])


def grads(model, x, upstream):
    for p in model.parameters():
        p.grad = None
    out = model(Tensor(x))
    value = out.data.copy()  # the freeing backward drops ``out.data``
    (out * Tensor(upstream)).sum().backward(free_graph=True)
    return value, [p.grad for p in model.parameters()]


@pytest.mark.parametrize("hidden", HIDDEN, ids=["one_layer", "two_layers"])
def test_output_and_gradients_equal_the_stacked_form(hidden):
    rng = np.random.default_rng(11)
    x = rng.standard_normal((N, T, C, H, W)).astype(np.float32)
    upstream = rng.standard_normal((N, C, H, W)).astype(np.float32)
    model = ConvLSTMModel(C, hidden, rng=0)

    out, got = grads(model, x, upstream)
    ref_out, want = grads(Stacked(model), x, upstream)

    assert out.tobytes() == ref_out.tobytes()
    assert len(got) == len(want) == len(list(model.parameters()))
    for g, w in zip(got, want):
        assert g is not None and g.tobytes() == w.tobytes()


@pytest.mark.parametrize("hidden", HIDDEN, ids=["one_layer", "two_layers"])
def test_training_equals_the_stacked_form(hidden):
    rng = np.random.default_rng(12)
    batches = [
        (
            rng.standard_normal((N, T, C, H, W)).astype(np.float32),
            rng.standard_normal((N, C, H, W)).astype(np.float32),
        )
        for _ in range(4)
    ]

    def fit(model):
        trainer = Trainer(
            model, Adam(model.parameters(), lr=1e-2), MSELoss(), sequential_batch
        )
        result = trainer.fit(batches, epochs=2)
        session = trainer._trace_session  # set under REPRO_TRACE=1
        if session is not None:
            assert session.stats()["replays"] == 2 * len(batches) - 1
        return result.train_losses, [p.data for p in model.parameters()]

    losses, params = fit(ConvLSTMModel(C, hidden, rng=0))
    ref_losses, ref_params = fit(Stacked(ConvLSTMModel(C, hidden, rng=0)))
    assert losses == ref_losses
    assert all(p.tobytes() == q.tobytes() for p, q in zip(params, ref_params))


def test_no_step_holds_a_time_axis(monkeypatch):
    """Neither the stacked sequence nor its zero-filled gradient: a step
    acquires no rank-5 buffer."""
    pool = ArrayPool()
    monkeypatch.setattr(pool_module, "_DEFAULT", pool)
    rng = np.random.default_rng(13)
    x = rng.standard_normal((N, T, C, H, W)).astype(np.float32)
    grads(ConvLSTMModel(C, (4,), rng=0), x, np.ones((N, C, H, W), np.float32))
    demand = pool.stats()["demand"]
    assert demand
    assert not [key for key in demand if key.count(",") == 4]


@pytest.mark.parametrize("rank", [4, 6])
def test_rank_five_input_is_required(rank):
    x = Tensor(np.zeros((N, T, C, H, W, 1)[:rank], dtype=np.float32))
    for model in (ConvLSTMModel(C, (4,), rng=0), nn.ConvLSTM(C, [4])):
        with pytest.raises(ValueError, match=f"got rank {rank}"):
            model(x)


def test_an_empty_history_is_rejected():
    x = Tensor(np.zeros((N, 0, C, H, W), dtype=np.float32))
    for model in (ConvLSTMModel(C, (4,), rng=0), nn.ConvLSTM(C, [4])):
        with pytest.raises(ValueError, match="at least one time step"):
            model(x)


def test_sequence_form_still_returns_every_step():
    x = Tensor(np.ones((N, T, C, H, W), dtype=np.float32))
    encoder = nn.ConvLSTM(C, [3, 4], rng=0)
    seq = encoder(x)
    assert seq.shape == (N, T, 4, H, W)
    frames = list(encoder.unroll(x))
    assert len(frames) == T
    for t, frame in enumerate(frames):
        assert frame.data.tobytes() == seq.data[:, t].tobytes()
