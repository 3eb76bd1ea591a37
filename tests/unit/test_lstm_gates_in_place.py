"""``fused_lstm_gates`` writes its activations over a non-leaf ``gates``.

The packed ``(N, 4*hidden, H, W)`` conv output a ``ConvLSTMCell`` feeds
it is the graph's only copy of sigmoid(i), sigmoid(f), tanh(g) and
sigmoid(o), and ``tanh(c_next)`` is recomputed in backward, so a step
holds five gate blocks fewer after the forward (7.5, not 12.5).  A leaf
``gates`` is copied first and left as it was.  ``check.sh`` runs this
file again under ``REPRO_TRACE=1``, where ``Trainer.fit`` replays a
recorded tape through the in-place kernel.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.core.models.grid import ConvLSTMModel
from repro.core.training import Trainer, sequential_batch
from repro.nn import MSELoss
from repro.nn import recurrent
from repro.optim import Adam
from repro.tensor import Tensor
from repro.tensor import pool as pool_module
from repro.tensor.ops_fused import fused_lstm_gates
from repro.tensor.pool import ArrayPool
from tests.tensor_oracle import oracle_lstm_gates

# grid_train's ConvLSTM leg: batch 16, six history steps, 12 hidden
# channels on the 12 x 24 grid.
N, T, HIDDEN, H, W = 16, 6, 12, 12, 24


def _logistic(x):
    """The branching logistic the kernel's in-place form equals bit for
    bit (``test_tensor_ops.py``)."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e)).astype(x.dtype)


def _activated(pre, hidden):
    """``[sigmoid(i), sigmoid(f), tanh(g), sigmoid(o)]`` of packed
    pre-activations, computed out of place."""
    i, f, g, o = (pre[:, k * hidden : (k + 1) * hidden] for k in range(4))
    return np.concatenate(
        [_logistic(i), _logistic(f), np.tanh(g), _logistic(o)], axis=1
    )


def test_a_convlstm_forward_holds_at_most_nine_gate_blocks_per_step(
    monkeypatch,
):
    """Bytes still allocated after a ``ConvLSTMModel`` forward, per step,
    in units of one ``(N, hidden, H, W)`` float32 block.  Per step the
    graph keeps the conv's padded input, which the frame and ``h`` are
    written into (at most 1.37, partly served by the pool), the packed
    activations (4), and ``c_next`` and ``h_next`` (2): 7.51 in all
    (``test_conv_input_fold.py`` holds it to 7.6; a kept
    ``concatenate([x, h])`` output added 0.92).  Separate i, f, g and o
    arrays and a kept ``tanh(c_next)`` added five more."""
    monkeypatch.setattr(pool_module, "_DEFAULT", ArrayPool())
    model = ConvLSTMModel(1, (HIDDEN,), rng=0)
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((N, T, 1, H, W)).astype(np.float32))
    # One training step first, so the forward below meets the pool in
    # its steady state, as every step after a leg's first does.
    warm = model(x)
    (warm * warm).sum().backward(free_graph=True)
    del warm
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = model(x)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert out.requires_grad
    block = N * HIDDEN * H * W * np.dtype(np.float32).itemsize
    assert held / (block * T) <= 9.0


@pytest.mark.parametrize("requires_grad", [True, False])
def test_a_leaf_gates_is_copied_not_consumed(requires_grad):
    rng = np.random.default_rng(1)
    pre = rng.standard_normal((2, 4 * 3, 4, 5)).astype(np.float32)
    gates = Tensor(pre.copy(), requires_grad=requires_grad)
    c = Tensor(rng.standard_normal((2, 3, 4, 5)).astype(np.float32))
    first = fused_lstm_gates(gates, c, 3)
    second = fused_lstm_gates(gates, c, 3)
    assert gates.data.tobytes() == pre.tobytes()
    for a, b in zip(first, second):
        assert a.data.tobytes() == b.data.tobytes()


def test_an_op_output_viewing_another_buffer_is_copied():
    """A basic slice's output is an op output whose data is a view of
    its parent's: writing over it would change the parent."""
    rng = np.random.default_rng(4)
    pre = rng.standard_normal((2, 4 * 3 + 1, 4, 5)).astype(np.float32)
    wide = Tensor(pre.copy(), requires_grad=True)
    c = Tensor(rng.standard_normal((2, 3, 4, 5)).astype(np.float32))
    fused_lstm_gates(wide[:, 1:], c, 3)
    assert wide.data.tobytes() == pre.tobytes()


def test_a_non_leaf_gates_holds_the_activations():
    rng = np.random.default_rng(2)
    pre = rng.standard_normal((2, 4 * 3, 4, 5)).astype(np.float32) * 4
    leaf = Tensor(pre.copy(), requires_grad=True)
    gates = leaf * 1.0  # an op output that owns its buffer
    buffer = gates.data
    c = Tensor(rng.standard_normal((2, 3, 4, 5)).astype(np.float32))
    h_next, c_next = fused_lstm_gates(gates, c, 3)
    assert gates.data is buffer
    assert buffer.tobytes() == _activated(pre, 3).tobytes()
    assert leaf.data.tobytes() == pre.tobytes()
    # And the outputs are the oracle chain's, which never writes over
    # its input.
    ref_h, ref_c = oracle_lstm_gates(Tensor(pre, requires_grad=True), c, 3)
    assert h_next.data.tobytes() == ref_h.data.tobytes()
    assert c_next.data.tobytes() == ref_c.data.tobytes()


def test_training_equals_the_gate_chain(monkeypatch):
    """A few ``Trainer.fit`` steps of a ``ConvLSTMModel`` give the losses
    and weights of the same model whose gate tail is the oracle chain;
    under ``REPRO_TRACE=1`` every step after the first is a replay."""
    rng = np.random.default_rng(3)
    batches = [
        (
            rng.standard_normal((3, 4, 2, 6, 5)).astype(np.float32),
            rng.standard_normal((3, 2, 6, 5)).astype(np.float32),
        )
        for _ in range(3)
    ]

    def fit():
        model = ConvLSTMModel(2, (4,), rng=0)
        trainer = Trainer(
            model, Adam(model.parameters(), lr=1e-2), MSELoss(), sequential_batch
        )
        result = trainer.fit(batches, epochs=2)
        return trainer, result.train_losses, [p.data for p in model.parameters()]

    trainer, losses, params = fit()
    session = trainer._trace_session  # set under REPRO_TRACE=1
    if session is not None:
        assert session.stats()["replays"] == 2 * len(batches) - 1
    monkeypatch.setattr(recurrent, "fused_lstm_gates", oracle_lstm_gates)
    _, ref_losses, ref_params = fit()
    assert losses == ref_losses
    assert all(p.tobytes() == q.tobytes() for p, q in zip(params, ref_params))
