"""Fused training kernels.

:func:`fused_lstm_gates` collapses the ConvLSTM gate tail — in
the unfused form 4 slice nodes, 4 activation nodes, 3 multiplies, an
add, and a tanh (13 graph nodes, each with its own closure and output
allocation) — into two graph nodes:

- a ``c_next`` node owning the packed activation buffer and the
  i/f/g-gate gradients, and
- an ``h_next`` node owning the output combination and the o-gate
  gradient.

The activations are written over the packed ``(N, 4H, ...)`` gate
buffer itself when it is an op output (the conv output in a
``ConvLSTMCell``), so that buffer is the graph's only copy of the four
gates; ``tanh(c_next)`` is not kept either, ``h_next``'s backward
recomputes it.  A step then holds 8.5 gate blocks after the forward,
not 13.5 (in-place activation with recomputation, as in Rota Bulò et
al., CVPR 2018).  The backward writes all four gate gradients into
**one** pooled packed gradient buffer instead of four full-size
scatter arrays, so a cell step builds 2 closures instead of 13 and
skips the four zero-filled scatter buffers plus three full-size adds
the slice nodes would pay.

Numerics are *bit-identical* to the unfused path: every product in the
forward and backward is evaluated with the same operand order and the
same dtype promotions as the chain of elementwise autograd ops it
replaces (pinned by ``tests/property/test_property_fused.py``).

:func:`batch_norm2d` does the same for training-mode batch norm (~16
nodes to one) but sums in a different order than the composed chain,
so it matches it to float32 tolerance, not bit for bit.

Each kernel is defined under ``repro.tensor.tensor._op``, which times
it and its backward and records it on a trace tape.
"""

from __future__ import annotations

import numpy as np

from repro.tensor.pool import default_pool
from repro.tensor.tensor import Tensor, _op


@_op("ops_fused.linear")
def fused_linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` as one autograd node.

    The composed form (``matmul`` → per-call ``weight.T`` transpose →
    broadcast add) builds four graph nodes and — crucially for
    reproducibility — accumulates the weight gradient at the transpose
    node's topo position, which depends on unrelated graph structure.
    This op accumulates ``weight.grad`` inside its own backward (the
    way :func:`~repro.tensor.ops_conv.conv2d` accumulates ``dw``), so
    per-step contributions always arrive in reverse step order no
    matter how the surrounding graph is shaped.
    """
    xd, wd = x.data, weight.data
    out = xd @ wd.T
    if bias is not None:
        out = out + bias.data

    def backward(grad):
        if x.requires_grad:
            x._accumulate(grad @ wd, donate=True)
        if weight.requires_grad:
            if xd.ndim == 1:
                dw = np.outer(grad, xd)
            else:
                g2 = grad.reshape(-1, grad.shape[-1])
                x2 = xd.reshape(-1, xd.shape[-1])
                dw = g2.T @ x2
            weight._accumulate(dw, donate=True)
        if bias is not None and bias.requires_grad:
            if grad.ndim == 1:
                bias._accumulate(grad)
            else:
                batch_axes = tuple(range(grad.ndim - 1))
                bias._accumulate(grad.sum(axis=batch_axes), donate=True)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor._make(out, parents, backward)


def _channel_sum(a: np.ndarray) -> np.ndarray:
    """Per-channel sum of an NCHW array: contiguous ``(N, C, H*W)``
    reductions instead of one strided ``axis=(0, 2, 3)`` reduce."""
    return a.reshape(a.shape[0], a.shape[1], -1).sum(axis=2).sum(axis=0)


@_op("ops_fused.batch_norm2d")
def batch_norm2d(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5):
    """Training-mode batch normalization over NCHW as one autograd node.

    Returns ``(out, mean, var)``: the normalized tensor plus the
    per-channel batch mean and (biased) variance as ``(C,)`` arrays,
    from which the caller updates its running statistics.  The composed
    form (``mean`` -> ``var`` -> ``** -0.5`` -> ``sub`` -> three ``mul``
    -> ``add``) is ~16 graph nodes, six of them holding a full-size
    activation and gradient; this node keeps one, ``x_hat``, in a pooled
    buffer its closure owns until the graph drops it (it is never handed
    back to the pool, so a retained graph can run backward again), and
    writes the output into the scratch that held ``(x - mean)**2``.
    Backward is the closed form ``dbeta = sum(g)``, ``dgamma =
    sum(g * x_hat)``, ``dx = gamma * inv_std * (g - dbeta/M - x_hat *
    dgamma/M)`` over one pooled buffer that becomes ``x.grad``.  The
    arithmetic follows the input dtype.  ``BatchNorm2d`` declares itself
    trace-unsafe: its running statistics would not update on a replay.
    """
    xd = x.data
    n, c, h, w = xd.shape
    m = n * h * w
    per_channel = (c, 1, 1)
    pool = default_pool()
    mean = _channel_sum(xd) / m
    x_hat = pool.acquire(xd.shape, mean.dtype)
    np.subtract(xd, mean.reshape(per_channel), out=x_hat)
    out = pool.acquire(xd.shape, mean.dtype)
    np.multiply(x_hat, x_hat, out=out)
    var = _channel_sum(out) / m
    inv_std = (var + eps) ** -0.5
    x_hat *= inv_std.reshape(per_channel)
    np.multiply(x_hat, gamma.data.reshape(per_channel), out=out)
    out += beta.data.reshape(per_channel)

    def backward(grad):
        dbeta = _channel_sum(grad)
        dx = pool.acquire(x_hat.shape, x_hat.dtype)
        np.multiply(grad, x_hat, out=dx)
        dgamma = _channel_sum(dx)
        if x.requires_grad:
            np.multiply(x_hat, (dgamma / m).reshape(per_channel), out=dx)
            dx += (dbeta / m).reshape(per_channel)
            np.subtract(grad, dx, out=dx)
            dx *= (gamma.data * inv_std).reshape(per_channel)
            x._accumulate(dx, donate=True)
        else:
            pool.release(dx)
        if gamma.requires_grad:
            gamma._accumulate(dgamma, donate=True)
        if beta.requires_grad:
            beta._accumulate(dbeta, donate=True)

    return Tensor._make(out, (x, gamma, beta), backward), mean, var


def _logistic_in_place(
    x: np.ndarray, e: np.ndarray, nonneg: np.ndarray
) -> np.ndarray:
    """Overwrite ``x`` with its piecewise-stable logistic and return it.

    ``1 / (1 + e)`` for ``x >= 0``, ``e / (1 + e)`` below, with ``e =
    exp(-|x|)``: never exponentiates a positive argument, so extreme
    inputs cannot overflow.  ``e <= 1``, so the numerator is
    ``maximum(e, x >= 0)``: the same bits as selecting a branch with
    ``np.where``, which does not vectorise.  ``e`` (``x``'s shape and
    dtype) and ``nonneg`` (bool) are contiguous scratch, so ``exp``
    runs at unit stride even when ``x`` is a strided gate block of the
    packed buffer.
    """
    np.abs(x, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    np.greater_equal(x, 0, out=nonneg)
    np.maximum(e, nonneg, out=x)
    e += 1.0
    x /= e
    return x


@_op("ops_fused.lstm_gates")
def fused_lstm_gates(gates: Tensor, c: Tensor, hidden: int):
    """Apply the LSTM gate equations to a packed gate tensor.

    Parameters
    ----------
    gates:
        Pre-activation gates packed along axis 1 in ``[i, f, g, o]``
        order, ``(N, 4*hidden, H, W)`` for
        :class:`~repro.nn.recurrent.ConvLSTMCell`.  **Consumed** when
        it is an op output that owns its buffer (the conv output in
        ``ConvLSTMCell``): the activations are written over its data,
        which afterwards holds ``[sigmoid(i), sigmoid(f), tanh(g),
        sigmoid(o)]``.  A leaf (or a view) is copied once first, so
        a caller that owns its tensor sees no change.
    c:
        Previous cell state, exactly the shape of one gate block
        ``(N, hidden, H, W)``.
    hidden:
        Gate block size along axis 1 (hidden units or channels).

    Returns
    -------
    ``(h_next, c_next)`` tensors wired into the autograd graph.
    """
    a = gates.data
    if a.shape[1] != 4 * hidden:
        raise ValueError(
            f"gate axis 1 is {a.shape[1]}, expected 4*hidden={4 * hidden}"
        )
    block = (a.shape[0], hidden, *a.shape[2:])
    if c.shape != block:
        raise ValueError(
            f"cell state shape {c.shape} is not one gate block {block} "
            f"of gates shape {a.shape}"
        )
    if gates._backward is None or a.base is not None:
        a = a.copy()  # a leaf, or a view of another tensor's data
    h1, h2, h3 = hidden, 2 * hidden, 3 * hidden
    # Strided views of the packed buffer: after the activations below
    # they are the graph's only copy of i, f, g and o.
    i, f, g, o = a[:, :h1], a[:, h1:h2], a[:, h2:h3], a[:, h3:]
    c_prev = c.data
    pool = default_pool()
    scratch = pool.acquire(block, a.dtype)
    nonneg = pool.acquire(block, np.bool_)
    for gate in (i, f, o):
        _logistic_in_place(gate, scratch, nonneg)
    pool.release(nonneg)
    np.tanh(g, out=g)
    c_data = f * c_prev
    c_data += np.multiply(i, g, out=scratch)
    # tanh(c_next) is scratch here; ``h_next``'s backward
    # recomputes it from ``c_data`` with the same ufunc.
    t = np.tanh(c_data, out=scratch if c_data.dtype == a.dtype else None)
    h_data = o * t
    pool.release(scratch)

    # ``h_next``'s backward runs first (reverse topo): it acquires the
    # packed gate gradient, fills the o-block and hands it across
    # through this cell; ``c_next``'s fills the rest in place.
    handoff: dict = {}

    def backward_c(dcn):
        if gates.requires_grad:
            packed = handoff.pop("packed", None)
            if packed is None:  # h_next never received a gradient
                packed = pool.acquire(a.shape, np.result_type(dcn, c_data))
                packed[:, h3:] = 0
            # Same association order as the unfused mul/sigmoid/
            # tanh closures: ((dcn * g) * i) * (1 - i) etc.
            one_minus = pool.acquire(block, a.dtype)
            di, df, dg = packed[:, :h1], packed[:, h1:h2], packed[:, h2:h3]
            np.multiply(dcn, g, out=di)
            di *= i
            di *= np.subtract(1.0, i, out=one_minus)
            np.multiply(dcn, c_prev, out=df)
            df *= f
            df *= np.subtract(1.0, f, out=one_minus)
            np.multiply(dcn, i, out=dg)
            np.multiply(g, g, out=one_minus)  # g**2
            dg *= np.subtract(1.0, one_minus, out=one_minus)
            pool.release(one_minus)
            gates._accumulate(packed, donate=True)
        if c.requires_grad:
            c._accumulate(dcn * f, donate=True)

    c_next = Tensor._make(c_data, (gates, c), backward_c)

    def backward_h(dh):
        t = np.tanh(c_data, out=pool.acquire(block, c_data.dtype))
        if gates.requires_grad:
            packed = pool.acquire(a.shape, np.result_type(dh, t))
            handoff["packed"] = packed
            # The i-block is free scratch until backward_c fills it.
            do, one_minus = packed[:, h3:], packed[:, :h1]
            np.multiply(dh, t, out=do)
            do *= o
            do *= np.subtract(1.0, o, out=one_minus)
        if c_next.requires_grad:
            # (dh * o) * (1 - t**2), its temporaries written over t.
            dc = dh * o
            np.square(t, out=t)
            dc *= np.subtract(1.0, t, out=t)
            c_next._accumulate(dc, donate=True)
        pool.release(t)

    h_next = Tensor._make(h_data, (gates, c_next), backward_h)
    return h_next, c_next
