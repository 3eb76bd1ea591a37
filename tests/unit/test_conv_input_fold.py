"""A conv's input buffer is the only copy of what it reads.

``conv2d`` takes a sequence of tensors and writes them channel by
channel into its own (zero-bordered) input buffer, and
``input_activation="relu"`` writes ``relu(x)`` there; backward
recomputes the ReLU mask from that buffer.  The composed
``conv2d(concatenate(parts, axis=1).relu(), ...)`` is the oracle: values
and every gradient must match it bit for bit, on both backends, for
both input-gradient forms (correlation when F <= C at stride 1, the
scatter otherwise), under eager and traced training.  ``check.sh`` runs
this file again under ``REPRO_TRACE=1``, where ``Trainer.fit`` replays
a recorded tape through the folded conv.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from repro import nn
from repro.core.models.grid import ConvLSTMModel, STResNet
from repro.core.training import Trainer
from repro.nn import MSELoss
from repro.optim import Adam
from repro.tensor import Tensor, concatenate, use_backend
from repro.tensor import pool as pool_module
from repro.tensor.ops_conv import conv2d
from repro.tensor.pool import ArrayPool


def _composed(parts, w, b, stride, padding, relu):
    x = concatenate(parts, axis=1) if len(parts) > 1 else parts[0]
    return conv2d(x.relu() if relu else x, w, b, stride=stride, padding=padding)


# (part channels, filters): F <= C correlates at stride 1, F > C scatters.
CHANNELS = {"f_le_c": ((3, 2), 4), "f_gt_c": ((1, 2), 7), "one_part": ((3,), 2)}


@pytest.mark.parametrize("backend", ["accelerated", "naive"])
@pytest.mark.parametrize("padding", [0, 1, 2])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("channels", list(CHANNELS), ids=list(CHANNELS))
@pytest.mark.parametrize("relu", [False, True], ids=["plain", "relu"])
@pytest.mark.parametrize(
    "grads", [(True, True), (False, True), (False, False)],
    ids=["all_grad", "first_no_grad", "no_input_grad"],
)
def test_folded_equals_composed(backend, padding, stride, channels, relu, grads):
    part_channels, filters = CHANNELS[channels]
    rng = np.random.default_rng(padding * 10 + stride)
    arrays = [
        rng.standard_normal((2, c, 6, 5)).astype(np.float32) for c in part_channels
    ]
    w_data = rng.standard_normal((filters, sum(part_channels), 3, 3))
    b_data = rng.standard_normal(filters)
    grads = grads[-len(arrays):]
    with use_backend(backend):
        results = []
        for folded in (True, False):
            parts = [Tensor(a, requires_grad=g) for a, g in zip(arrays, grads)]
            w = Tensor(w_data.astype(np.float32), requires_grad=True)
            b = Tensor(b_data.astype(np.float32), requires_grad=True)
            if folded:
                out = conv2d(
                    parts, w, b, stride=stride, padding=padding,
                    input_activation="relu" if relu else None,
                )
            else:
                out = _composed(parts, w, b, stride, padding, relu)
            upstream = np.random.default_rng(7).standard_normal(out.shape)
            (out * Tensor(upstream.astype(np.float32))).sum().backward()
            results.append([out.data] + [t.grad for t in (*parts, w, b)])
    folded, composed = results
    for got, want in zip(folded, composed):
        assert (got is None) == (want is None)
        if want is not None:
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


def test_a_relu_input_is_left_as_it_was():
    rng = np.random.default_rng(3)
    data = rng.standard_normal((2, 3, 4, 4)).astype(np.float32)
    x = Tensor(data.copy(), requires_grad=True)
    conv2d(x, Tensor(np.ones((2, 3, 3, 3), np.float32)), padding=1,
           input_activation="relu").sum().backward()
    assert x.data.tobytes() == data.tobytes()
    np.testing.assert_array_equal(x.grad == 0, data <= 0)


@pytest.mark.parametrize("value", ["sigmoid", "RELU", 1])
def test_unknown_input_activation_is_rejected(value):
    with pytest.raises(ValueError, match="input_activation"):
        nn.Conv2d(2, 2, 3, input_activation=value)


class _Folded(nn.Module):
    """``relu(concatenate([a * scale, b]))`` through one conv, folded
    or composed; ``a * scale`` makes a part that needs a gradient."""

    def __init__(self, folded: bool):
        super().__init__()
        self.folded = folded
        self.scale = nn.Parameter(np.full((1, 2, 1, 1), 0.5, np.float32))
        self.conv = nn.Conv2d(
            5, 4, 3, padding=1, rng=0,
            input_activation="relu" if folded else None,
        )

    def forward(self, a, b):
        parts = (a * self.scale, b)
        if self.folded:
            return self.conv(parts)
        return self.conv(concatenate(parts, axis=1).relu())


@pytest.mark.parametrize("trace", [False, True], ids=["eager", "traced"])
def test_training_equals_the_composed_conv(trace):
    rng = np.random.default_rng(11)
    batches = [
        (
            rng.standard_normal((3, 2, 5, 6)).astype(np.float32),
            rng.standard_normal((3, 3, 5, 6)).astype(np.float32),
            rng.standard_normal((3, 4, 5, 6)).astype(np.float32),
        )
        for _ in range(3)
    ]

    def adapter(batch):
        a, b, y = batch
        return (Tensor(a), Tensor(b)), Tensor(y)

    def fit(folded):
        model = _Folded(folded)
        trainer = Trainer(
            model, Adam(model.parameters(), lr=1e-2), MSELoss(), adapter
        )
        result = trainer.fit(batches, epochs=2, trace=trace)
        params = [p.data.tobytes() for p in model.parameters()]
        return trainer, result.train_losses, params

    trainer, losses, params = fit(True)
    if trace:
        stats = trainer._trace_session.stats()
        assert stats["replays"] == 2 * len(batches) - 1
    _, ref_losses, ref_params = fit(False)
    assert losses == ref_losses
    assert params == ref_params


# grid_train's ConvLSTM leg: batch 16, six history steps, 12 hidden
# channels on the 12 x 24 grid.
N, T, HIDDEN, H, W = 16, 6, 12, 12, 24


def test_a_convlstm_forward_holds_at_most_7_6_gate_blocks_per_step(monkeypatch):
    """Per step the graph keeps the conv's padded input (the frame and
    ``h`` written into it: 1.37 blocks, partly pool-served), the packed
    activations (4) and ``c_next`` and ``h_next`` (2): 7.51 blocks of
    ``(N, hidden, H, W)`` float32.  The ``concatenate([x, h])`` output
    it copied from made 8.43."""
    monkeypatch.setattr(pool_module, "_DEFAULT", ArrayPool())
    model = ConvLSTMModel(1, (HIDDEN,), rng=0)
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((N, T, 1, H, W)).astype(np.float32))
    # One training step first, so the forward below meets the pool in
    # its steady state.
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
    assert held / (block * T) <= 7.6


def _graph(root):
    seen, stack = {}, [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._prev)
    return list(seen.values())


def test_an_st_resnet_forward_holds_no_relu_output_or_mask():
    """Every ReLU in ST-ResNet feeds a conv directly and is that conv's
    input activation: no graph node is a ReLU, and no backward keeps a
    boolean mask."""
    model = STResNet(
        len_closeness=2, len_period=1, len_trend=1, nb_channels=2,
        grid_height=6, grid_width=5, nb_filters=4, rng=0,
    )
    rng = np.random.default_rng(2)
    inputs = [
        Tensor(rng.standard_normal((2, 2 * k, 6, 5)).astype(np.float32))
        for k in (2, 1, 1)
    ]
    nodes = _graph(model(*inputs))
    assert len(nodes) > 30
    held = []
    for node in nodes:
        fn = node._backward
        if fn is None:
            continue
        assert "relu" not in fn.__qualname__
        for cell in fn.__closure__ or ():
            value = cell.cell_contents
            if isinstance(value, np.ndarray) and value.dtype == np.bool_:
                held.append(fn.__qualname__)
    assert held == []
