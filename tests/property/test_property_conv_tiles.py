"""Property-based tests: the accelerated conv kernels are bit-identical
to the untiled forms they replaced (``tests/tensor_oracle.py``).

The forward runs in tiles of whole images, each filling a prefix of
the column and gemm buffers, and the weight gradient is ``cols @
grad_fm.T`` transposed into place instead of ``grad_fm @ cols.T``.
Neither may change a bit.  Every case draws the tile size too (one
image per tile, a few, all at once), an empty batch, uneven tiles,
1/3/5 kernels, strides, paddings, bias, ReLU, float32/float64 and a
non-contiguous input, and compares the output, the ReLU mask, ``dw``
and ``dx`` in both forms — at the kernel level, into buffers full of
NaN, and end to end through ``conv2d``'s backward.  Half the cases are
small or float64, where ``_tile_bounds`` must keep one tile (a smaller
gemm, gemv or float64 gemm rounds differently); the rest are large
enough to be split.  Last, Trainer steps of a two-conv net train to the
same losses and parameters tiled and untiled; ``check.sh``'s traced
lane runs that with every step after the first a tape replay.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro import nn
from repro.core.training import Trainer
from repro.nn import MSELoss
from repro.optim import Adam
from repro.tensor import Tensor
from repro.tensor import ops_conv
from repro.tensor.ops_conv import (
    _tile_bounds,
    conv2d,
    conv_dw,
    conv_dx_scatter,
    conv_forward,
    dx_by_correlation,
    flipped,
    pad_into,
)
from tests.tensor_oracle import oracle_conv_dw, oracle_conv_forward


def _pair_batch(batch):
    """(frame, target frame) batches as the model's one input."""
    x, y = batch
    return (Tensor(x),), Tensor(y)


@st.composite
def conv_cases(draw):
    # Tiles need float32 gemms of >= _MIN_TILE_MACS each, so half the
    # cases are drawn large enough to have them, mostly in float32.
    large = draw(st.booleans())
    kernel = st.sampled_from([3, 5] if large else [1, 3, 5])
    kh, kw = draw(kernel), draw(kernel)
    padding = draw(st.integers(0, 2))
    size = st.integers(16, 28) if large else st.integers(1, 10)
    dtypes = [np.float32] * (3 if large else 1) + [np.float64]
    return {
        "n": draw(st.integers(0, 40)),
        "c": draw(st.integers(8, 16) if large else st.integers(1, 6)),
        "f": draw(st.sampled_from([16, 24, 32] if large else [1, 2, 3, 5])),
        "h": max(kh - 2 * padding, 1, draw(size)),
        "w": max(kw - 2 * padding, 1, draw(size)),
        "kh": kh,
        "kw": kw,
        "stride": draw(st.integers(1, 2)),
        "padding": padding,
        "bias": draw(st.booleans()),
        "relu": draw(st.booleans()),
        "dtype": draw(st.sampled_from(dtypes)),
        "contiguous": draw(st.booleans()),
        # Down to one image per tile: shapes this small tile only then.
        "tile_bytes": draw(st.sampled_from([1, 1 << 16, ops_conv._TILE_BYTES])),
        "seed": draw(st.integers(0, 9999)),
    }


def _nan(shape, dtype):
    return np.full(shape, np.nan, dtype)


def _forward(kernel, xp, w, bias, stride, out_shape, relu):
    """``(out, mask)`` from ``kernel`` run into NaN-filled buffers."""
    f, c, kh, kw = w.shape
    rows = out_shape[0] * out_shape[2] * out_shape[3]
    out = _nan(out_shape, w.dtype)
    mask = np.ones(out_shape, np.bool_) if relu else None
    cols = _nan((c * kh * kw, rows), w.dtype)
    kernel(xp, w, bias, stride, out, cols, _nan((f, rows), w.dtype), mask)
    return out, mask, cols


@settings(max_examples=120, deadline=None)
@given(conv_cases())
def test_tiled_conv_is_bit_identical_to_the_untiled_oracle(case):
    n, c, f, h, w = (case[k] for k in ("n", "c", "f", "h", "w"))
    kh, kw, stride, padding = case["kh"], case["kw"], case["stride"], case["padding"]
    dtype = case["dtype"]
    rng = np.random.default_rng(case["seed"])
    x = (rng.random((h, n, c, w)) - 0.5).astype(dtype).transpose(1, 2, 0, 3)
    if case["contiguous"]:
        x = np.ascontiguousarray(x)
    weight = (rng.random((f, c, kh, kw)) - 0.5).astype(dtype)
    bias = (rng.random(f) - 0.5).astype(dtype) if case["bias"] else None
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    out_shape = (n, f, oh, ow)
    grad = (rng.random(out_shape) - 0.5).astype(np.float32)
    xp = x
    if padding:
        xp = pad_into(np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype), x)

    with mock.patch.object(ops_conv, "_TILE_BYTES", case["tile_bytes"]):
        tiles = len(_tile_bounds(n, f, c * kh * kw, oh * ow, dtype)) - 1
        event("one tile" if tiles == 1 else "several tiles")
        # Kernel level: forward and ReLU mask.
        out, mask, _ = _forward(
            conv_forward, xp, weight, bias, stride, out_shape, case["relu"]
        )
        want, want_mask, cols = _forward(
            oracle_conv_forward, xp, weight, bias, stride, out_shape, case["relu"]
        )
        assert np.array_equal(out, want)
        assert mask is None or np.array_equal(mask, want_mask)

        # dw from the oracle's full column buffer.
        g = grad * want_mask if case["relu"] else grad
        gfm = np.ascontiguousarray(g.transpose(1, 0, 2, 3).reshape(f, -1), dtype)
        want_dw = oracle_conv_dw(gfm, cols, weight.shape)
        assert np.array_equal(conv_dw(gfm, cols, weight.shape), want_dw)

        # dx, correlation form: wherever it is valid, not only where
        # dx_by_correlation picks it.
        if stride == 1 and padding <= min(kh, kw) - 1:
            ph, pw = kh - 1 - padding, kw - 1 - padding
            gp = np.zeros((n, f, oh + 2 * ph, ow + 2 * pw), dtype)
            pad_into(gp, g)
            dx_shape = (n, c, h, w)
            dx, _, _ = _forward(
                conv_forward, gp, flipped(weight), None, 1, dx_shape, False
            )
            want_dx, _, _ = _forward(
                oracle_conv_forward, gp, flipped(weight), None, 1, dx_shape, False
            )
            assert np.array_equal(dx, want_dx)
        if dx_by_correlation(f, c, kh, kw, stride, padding):
            want_x_grad = want_dx
        else:  # scatter form: unchanged, fed the oracle's gradient
            dxp = np.empty(xp.shape, dtype)
            dcols = np.empty((c * kh * kw, n * oh * ow), dtype)
            conv_dx_scatter(gfm, weight, stride, oh, ow, dcols, dxp)
            want_x_grad = dxp[:, :, padding : padding + h, padding : padding + w]

        # End to end through conv2d's pooled buffers and backward.
        xt = Tensor(x, requires_grad=True, dtype=dtype)
        wt = Tensor(weight, requires_grad=True, dtype=dtype)
        bt = None if bias is None else Tensor(bias, requires_grad=True, dtype=dtype)
        y = conv2d(
            xt, wt, bt, stride=stride, padding=padding,
            activation="relu" if case["relu"] else None,
        )
        y.backward(grad)
        assert np.array_equal(y.data, want.astype(y.data.dtype))
        assert np.array_equal(wt.grad, want_dw)
        assert np.array_equal(xt.grad, want_x_grad)


# (dtype, F, C, H, W, N): split like a float32 F > 1 conv, each of these
# loses bits on an OpenBLAS host — a one-row weight runs gemv, and a
# float64 gemm rounds edge columns differently.
WHOLE = [(np.float32, 1, 19, 23, 45, 21), (np.float64, 48, 32, 10, 10, 17)]


@pytest.mark.parametrize("dtype,f,c,h,w,n", WHOLE, ids=["gemv", "float64"])
def test_shapes_whose_tiles_would_round_differently_run_whole(dtype, f, c, h, w, n):
    assert _tile_bounds(n, f, c * 9, h * w, dtype) == [0, n]
    rng = np.random.default_rng(0)
    xp = (rng.random((n, c, h + 2, w + 2)) - 0.5).astype(dtype)
    weight = (rng.random((f, c, 3, 3)) - 0.5).astype(dtype)
    got = _forward(conv_forward, xp, weight, None, 1, (n, f, h, w), False)
    want = _forward(oracle_conv_forward, xp, weight, None, 1, (n, f, h, w), False)
    assert np.array_equal(got[0], want[0])


STEPS = 3


def _train(monkeypatch, tile_bytes, seed):
    """Per-step losses and final parameters of ``STEPS`` Trainer steps
    of a two-conv net whose convs split into 4-8 tiles at
    ``tile_bytes=1``; ``REPRO_TRACE=1`` makes every step after the
    first a tape replay."""
    monkeypatch.setattr(ops_conv, "_TILE_BYTES", tile_bytes)
    rng = np.random.default_rng(seed)
    model = nn.Sequential(
        nn.Conv2d(8, 16, 3, padding=1, rng=rng),
        nn.ReLU(),
        nn.Conv2d(16, 16, 3, padding=1, rng=rng),
    )
    trainer = Trainer(model, Adam(model.parameters(), lr=1e-2), MSELoss(), _pair_batch)
    losses = []
    for _ in range(STEPS):
        batch = (
            rng.standard_normal((8, 8, 24, 24)).astype(np.float32),
            rng.standard_normal((8, 16, 24, 24)).astype(np.float32),
        )
        losses.append(trainer.fit([batch], epochs=1).train_losses[0])
    session = trainer._trace_session
    if session is not None:
        assert session.stats()["replays"] == STEPS - 1
    return losses, [p.data.copy() for p in model.parameters()]


@pytest.mark.parametrize("seed", [0, 1])
def test_training_steps_are_bit_identical_tiled_or_not(monkeypatch, seed):
    tiled = _train(monkeypatch, 1, seed)
    assert len(_tile_bounds(8, 16, 8 * 9, 24 * 24, np.float32)) == 5
    untiled = _train(monkeypatch, 1 << 30, seed)
    assert len(_tile_bounds(8, 16, 16 * 9, 24 * 24, np.float32)) == 2
    assert tiled[0] == untiled[0]
    assert all(np.array_equal(p, q) for p, q in zip(tiled[1], untiled[1]))
