"""Differentiable convolution and pooling primitives (NCHW layout).

``conv2d`` has two execution strategies selected by the active backend
(:mod:`repro.tensor.backend`):

- ``accelerated``: channel-major im2col + BLAS gemm.  The forward runs
  per L2-sized tile of whole images (:func:`_tile_bounds`): the tile's
  im2col (*one* strided copy of a window view of the padded input)
  fills a prefix of the column buffer, its gemm a prefix of the
  scratch, and the bias pass the tile's part of the C-contiguous NCHW
  output.  ``dw`` is ``cols @ grad_fm.T`` (one gemm, BLAS's fast
  orientation) transposed into ``(F, C, KH, KW)``, and ``dx`` is
  either the forward kernel run again over the padded gradient and the
  flipped kernel or one gemm plus ``KH*KW`` window adds
  (:func:`dx_by_correlation` picks).  Every transient is pooled (tiles
  use prefixes); the column buffer is released after the forward gemm
  and refilled in backward.  The kernels are module-level functions
  over caller-supplied buffers; ``conv2d`` hands them pooled
  transients, and a traced step (:mod:`repro.tensor.trace`) replays by
  calling ``conv2d`` itself.
- ``naive``: per-output-pixel loops — the reference implementation
  used as the "CPU" leg of the Figure 9 reproduction.

Both strategies compute identical values; tests assert this.

Each op here is defined under ``repro.tensor.tensor._op``, which times
it and its backward and records it on a trace tape.
"""

from __future__ import annotations

import numpy as np

from numpy.lib.stride_tricks import as_strided

from repro.tensor.backend import ACCELERATED, get_backend
from repro.tensor.pool import default_pool
from repro.tensor.tensor import Tensor, _as_array, _op


def _conv_out_size(size: int, kernel: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - kernel) // stride + 1


def check_conv_args(
    stride, padding, activation=None, input_activation=None
) -> None:
    """Reject a stride, padding or activation no conv kernel accepts.

    Runs before any strided window view is built: there a bad stride
    is an out-of-bounds read, not just a wrong answer."""
    for name, value, low in (("stride", stride, 1), ("padding", padding, 0)):
        if not isinstance(value, (int, np.integer)) or value < low:
            raise ValueError(
                f"{name} must be an integer >= {low}, got {value!r}"
            )
    if activation not in (None, "relu"):
        raise ValueError(f"unsupported conv2d activation {activation!r}")
    if input_activation not in (None, "relu"):
        raise ValueError(
            f"unsupported conv2d input_activation {input_activation!r}"
        )


def _check_conv_shapes(x_shapes, w_shape, bias, bias_axis: int) -> None:
    """Reject inputs, a weight or a bias whose shapes no conv accepts,
    before any buffer is acquired.  ``x_shapes`` are the input parts
    (one for a plain input); they must agree in N, H and W and together
    hold ``w_shape[1 - bias_axis]`` channels; the bias holds
    ``w_shape[bias_axis]``."""
    ranks = [len(s) for s in (*x_shapes, w_shape)]
    if any(r != 4 for r in ranks):
        raise ValueError(
            f"conv inputs and weight must be 4-D, got input shapes "
            f"{list(x_shapes)} and weight shape {w_shape}"
        )
    if len({(s[0], s[2], s[3]) for s in x_shapes}) != 1:
        raise ValueError(
            f"conv input parts differ outside the channel axis: "
            f"{list(x_shapes)}"
        )
    c = sum(s[1] for s in x_shapes)
    c_w = w_shape[1 - bias_axis]
    if c != c_w:
        raise ValueError(
            f"input channels {c} do not match weight channels {c_w} "
            f"(input shapes {list(x_shapes)}, weight shape {w_shape})"
        )
    if bias is not None and bias.shape != (w_shape[bias_axis],):
        raise ValueError(
            f"bias of shape {bias.shape} for a weight of shape {w_shape}: "
            f"expected ({w_shape[bias_axis]},)"
        )


# -- accelerated conv2d kernels ----------------------------------------
# Module-level functions over caller-supplied buffers; ``conv2d`` below
# passes pooled transients.

# Column bytes per forward tile: best of a 256 KiB - 4 MiB sweep on a
# 2 MiB-per-core L2 (docs/PERFORMANCE.md section M).
_TILE_BYTES = 1 << 20
# OpenBLAS rounds smaller gemms, one-row weights (gemv) and float64 tile
# edges differently from the whole product; only tiles that run the
# whole product's kernel keep every bit.
_MIN_TILE_MACS = 10**6


def _tile_bounds(n, f, k, per_image, dtype) -> list:
    """Image boundaries of the forward tiles, sizes within one image."""
    if dtype != np.float32 or f < 2:
        return [0, n]
    per_tile = max(1, _TILE_BYTES // (4 * k * per_image))
    fewest = -(-_MIN_TILE_MACS // (f * k * per_image))
    tiles = max(1, min(-(-n // per_tile), n // fewest))
    return [n * t // tiles for t in range(tiles + 1)]


def pad_into(buf: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Write ``x`` into the centre of the larger ``buf``, whose border
    the caller keeps zero."""
    ph, pw = (buf.shape[2] - x.shape[2]) // 2, (buf.shape[3] - x.shape[3]) // 2
    buf[:, :, ph : ph + x.shape[2], pw : pw + x.shape[3]] = x
    return buf


def _fill_input(inner: np.ndarray, parts, relu: bool) -> None:
    """Write ``parts`` channel by channel into ``inner`` (the interior
    of a conv's input buffer); with ``relu``, each as ``Tensor.relu``
    computes it, ``part * (part > 0)``."""
    start = 0
    for part in parts:
        dst = inner[:, start : start + part.shape[1]]
        if relu:
            np.multiply(part, part > 0, out=dst)
        else:
            dst[...] = part
        start += part.shape[1]


def _send_input_grad(xs, g, owner, inner, relu: bool) -> None:
    """Hand the gradient ``g`` of a conv's input buffer interior
    ``inner`` to the input parts ``xs`` that need one, channel block by
    channel block; ``g`` is ``owner`` or a view of it.  With ``relu``
    the mask is recomputed from ``inner`` (``relu(x) > 0`` is ``x > 0``)
    and applied in place, as ``Tensor.relu``'s backward multiplies."""
    if relu:
        np.multiply(g, inner > 0, out=g)
    if len(xs) == 1 and g is owner:
        xs[0]._accumulate(g, donate=True)
        return
    start = 0
    for t in xs:
        if t.requires_grad:
            t._accumulate(g[:, start : start + t.shape[1]])
        start += t.shape[1]
    default_pool().release(owner)


def conv_windows(xp, kh, kw, stride, oh, ow) -> np.ndarray:
    """Read-only ``(C, KH, KW, N, OH, OW)`` view of every kernel window
    of the padded input ``xp`` ``(N, C, HP, WP)``, built from ``xp``'s
    own strides (so any layout works, a non-contiguous one included)."""
    n, c, hp, wp = xp.shape
    if (kh - 1) + stride * (oh - 1) >= hp or (kw - 1) + stride * (ow - 1) >= wp:
        raise ValueError(
            f"{kh}x{kw} windows at stride {stride} over a {oh}x{ow} output "
            f"reach outside the {hp}x{wp} input"
        )
    sn, sc, sh, sw = xp.strides
    return as_strided(
        xp,
        (c, kh, kw, n, oh, ow),
        (sc, sh, sw, sn, sh * stride, sw * stride),
        writeable=False,
    )


def im2col(xp, kh, kw, stride, oh, ow, cols) -> np.ndarray:
    """Fill ``cols`` — ``(C*KH*KW, N*OH*OW)`` — in one strided copy."""
    windows = conv_windows(xp, kh, kw, stride, oh, ow)
    np.copyto(cols.reshape(windows.shape), windows)
    return cols


def conv_forward(xp, w, bias, stride, out, cols, fm, mask=None) -> None:
    """``out`` ``(N, F, OH, OW)``, C-contiguous, = ``w`` correlated with
    ``xp`` (+ ``bias``; ReLU'd when ``mask`` is given, which receives
    ``out > 0``).  Runs per tile of images, each in a prefix of the
    column buffer ``cols`` and of the gemm scratch ``fm``."""
    f, c, kh, kw = w.shape
    n, _, oh, ow = out.shape
    w2d = w.reshape(f, -1)  # a copy for dx's flipped kernel: make it once
    k, per_image = c * kh * kw, oh * ow
    bounds = _tile_bounds(n, f, k, per_image, cols.dtype)
    for s, e in zip(bounds, bounds[1:]):
        r = (e - s) * per_image
        tile_cols = cols.reshape(-1)[: k * r].reshape(k, r)
        im2col(xp[s:e], kh, kw, stride, oh, ow, tile_cols)
        tile_fm = fm.reshape(-1)[: f * r].reshape(f, r)
        np.dot(w2d, tile_cols, out=tile_fm)
        fm4 = tile_fm.reshape(f, e - s, oh, ow).transpose(1, 0, 2, 3)
        if bias is None:
            np.copyto(out[s:e], fm4)
        else:
            np.add(fm4, bias.reshape(1, f, 1, 1), out=out[s:e])
        if mask is not None:
            # Same expression as Tensor.relu so fused == composed
            # bitwise; only the mask is saved, not a pre-activation copy.
            np.greater(out[s:e], 0, out=mask[s:e])
            np.multiply(out[s:e], mask[s:e], out=out[s:e])


def grad_feature_major(grad, gfm) -> np.ndarray:
    """``grad`` ``(N, F, OH, OW)`` as the ``(F, N*OH*OW)`` gemm operand."""
    n, f, oh, ow = grad.shape
    np.copyto(gfm.reshape(f, n, oh, ow), grad.transpose(1, 0, 2, 3))
    return gfm


def conv_dw(gfm, cols, w_shape) -> np.ndarray:
    """Weight gradient in ``(F, C, KH, KW)`` order, in an array that owns
    its memory (the accumulator may adopt it as ``weight.grad``, and the
    pool takes it back later).  In float32 ``cols @ gfm.T``: faster gemm,
    same bits.  A float64 gemm of the transposed shape can round
    differently (AVX-512 dgemm kernels do), so float64 keeps ``gfm @
    cols.T``."""
    dw = default_pool().acquire(w_shape, cols.dtype)
    if cols.dtype == np.float32:
        np.copyto(dw.reshape(w_shape[0], -1), np.dot(cols, gfm.T).T)
    else:
        np.dot(gfm, cols.T, out=dw.reshape(w_shape[0], -1))
    return dw


def dx_by_correlation(f, c, kh, kw, stride, padding) -> bool:
    """Which form the input gradient takes.  Correlation needs stride 1
    and a non-negative gradient padding; it wins when its column
    buffer ``(F*KH*KW, N*H*W)`` is no taller than the forward one."""
    return stride == 1 and padding <= min(kh, kw) - 1 and f <= c


def flipped(w) -> np.ndarray:
    """The kernel ``dx`` correlates the gradient with: channel axes
    swapped, taps reversed (a view)."""
    return w.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]


def conv_dx_scatter(gfm, w, stride, oh, ow, dcols, dxp) -> None:
    """Padded input gradient ``dxp`` ``(N, C, HP, WP)``: one gemm for
    every tap's contribution, then each tap's ``(C, N, OH, OW)`` block
    added into its shifted window."""
    f, c, kh, kw = w.shape
    np.dot(w.reshape(f, -1).T, gfm, out=dcols)
    taps = dcols.reshape(c, kh, kw, dxp.shape[0], oh, ow)
    dxp.fill(0)
    dx_cm = dxp.transpose(1, 0, 2, 3)
    for i in range(kh):
        for j in range(kw):
            dx_cm[
                :, :, i : i + stride * oh : stride, j : j + stride * ow : stride
            ] += taps[:, i, j]


@_op("ops_conv.conv2d")
def conv2d(
    x,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
    activation: str | None = None,
    input_activation: str | None = None,
) -> Tensor:
    """2D cross-correlation.

    Parameters
    ----------
    x : Tensor of shape (N, C_in, H, W), or a sequence of tensors
        ``(N, C_i, H, W)`` whose channels sum to ``C_in``.  The parts
        are written channel by channel straight into the conv's own
        input buffer (the zero-bordered one when ``padding`` > 0), so
        no concatenated array or graph node exists; values and
        gradients match ``conv2d(concatenate(x, axis=1), ...)`` bit for
        bit, and in backward only the parts that need a gradient get
        one.
    weight : Tensor of shape (C_out, C_in, KH, KW)
    bias : optional Tensor of shape (C_out,)
    activation : ``"relu"`` fuses the bias-add + ReLU epilogue into
        this node — one graph node and one saved mask instead of a
        separate activation node holding a second activation-sized
        array.  Values and gradients match the composed
        ``conv2d(...).relu()`` bit for bit.
    input_activation : ``"relu"`` writes ``relu(x)`` into the input
        buffer, which the conv holds for its weight gradient anyway;
        backward recomputes the mask from that buffer, so neither a
        ReLU output nor its mask is kept.  Values and gradients match
        the composed ``conv2d(x.relu(), ...)`` bit for bit.
    """
    check_conv_args(stride, padding, activation, input_activation)
    xs = (x,) if isinstance(x, Tensor) else tuple(x)
    _check_conv_shapes([t.shape for t in xs], weight.shape, bias, bias_axis=0)
    n, _, h, w = xs[0].shape
    f, c, kh, kw = weight.shape
    oh = _conv_out_size(h, kh, stride, padding)
    ow = _conv_out_size(w, kw, stride, padding)
    if oh <= 0 or ow <= 0:
        raise ValueError(
            f"conv output would be empty for input {h}x{w}, kernel "
            f"{kh}x{kw}, stride {stride}, padding {padding}"
        )

    pool = default_pool()
    relu_in = input_activation == "relu"
    folded = relu_in or len(xs) > 1
    inner = None  # the buffer's interior, when the conv owns a buffer
    if padding or folded:
        dtype = xs[0].data.dtype
        if folded:  # stored as the composed concatenate / relu output is
            dtype = _as_array(np.empty(0, np.result_type(*(t.data for t in xs)))).dtype
        xp = pool.acquire(
            (n, c, h + 2 * padding, w + 2 * padding), dtype, zero=bool(padding)
        )
        inner = xp[:, :, padding : padding + h, padding : padding + w]
        _fill_input(inner, [t.data for t in xs], relu_in)
    else:
        xp = xs[0].data
    accelerated = get_backend() == ACCELERATED
    correlate = accelerated and dx_by_correlation(f, c, kh, kw, stride, padding)
    k2, rows = kh * kw, n * oh * ow
    relu_mask = None

    if accelerated:
        # Pooled transients, recycled every call, so the column
        # buffer does not carry im2col's allocation cost.
        dt = np.result_type(xp.dtype, weight.data.dtype)
        b = None if bias is None else bias.data
        out = np.empty((n, f, oh, ow), dt if b is None else np.result_type(dt, b.dtype))
        if activation == "relu":
            relu_mask = np.empty(out.shape, np.bool_)
        cols = pool.acquire((c * k2, rows), dt)
        fm = pool.acquire((f, rows), dt)
        conv_forward(xp, weight.data, b, stride, out, cols, fm, relu_mask)
        pool.release(cols)
        pool.release(fm)
    else:
        out = np.empty((n, f, oh, ow), dtype=xp.dtype)
        w_flat = weight.data.reshape(f, -1)
        for i in range(oh):
            for j in range(ow):
                si, sj = i * stride, j * stride
                patch = xp[:, :, si : si + kh, sj : sj + kw].reshape(n, -1)
                out[:, :, i, j] = patch @ w_flat.T
        if bias is not None:
            out = out + bias.data.reshape(1, f, 1, 1)
        if activation == "relu":
            relu_mask = out > 0
            out = out * relu_mask

    needs_dx = any(t.requires_grad for t in xs)

    def backward(grad):
        pool = default_pool()
        if relu_mask is not None:
            grad = grad * relu_mask
        gfm = None
        if accelerated and (weight.requires_grad or (needs_dx and not correlate)):
            gfm = grad_feature_major(grad, pool.acquire((f, rows), dt))
        if weight.requires_grad:
            if accelerated:
                cols = pool.acquire((c * k2, rows), dt)
                im2col(xp, kh, kw, stride, oh, ow, cols)
                dw = conv_dw(gfm, cols, weight.shape)
                pool.release(cols)
            else:
                dw = pool.acquire(weight.data.shape, weight.data.dtype, zero=True)
                w_rows = dw.reshape(f, -1)
                for i in range(oh):
                    for j in range(ow):
                        si, sj = i * stride, j * stride
                        patch = xp[:, :, si : si + kh, sj : sj + kw].reshape(n, -1)
                        w_rows += grad[:, :, i, j].T @ patch
            weight._accumulate(dw, donate=True)
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2, 3)), donate=True)
        if needs_dx and correlate:
            ph, pw = kh - 1 - padding, kw - 1 - padding
            gp = grad
            if ph or pw:
                gp = pool.acquire((n, f, oh + 2 * ph, ow + 2 * pw), dt, zero=True)
                pad_into(gp, grad)
            dx = pool.acquire((n, c, h, w), dt)
            dcols = pool.acquire((f * k2, n * h * w), dt)
            dfm = pool.acquire((c, n * h * w), dt)
            conv_forward(gp, flipped(weight.data), None, 1, dx, dcols, dfm)
            for scratch in (dcols, dfm, gp):
                if scratch is not grad:
                    pool.release(scratch)
            _send_input_grad(xs, dx, dx, inner, relu_in)
        elif needs_dx:
            if accelerated:
                dxp = pool.acquire(xp.shape, xp.dtype)
                dcols = pool.acquire((c * k2, rows), dt)
                conv_dx_scatter(gfm, weight.data, stride, oh, ow, dcols, dxp)
                pool.release(dcols)
            else:
                dxp = pool.acquire(xp.shape, xp.dtype, zero=True)
                grad_nhwf = grad.transpose(0, 2, 3, 1)
                for i in range(kh):
                    for j in range(kw):
                        contrib = np.tensordot(
                            grad_nhwf, weight.data[:, :, i, j], axes=([3], [0])
                        )
                        dxp[
                            :, :, i : i + stride * oh : stride,
                            j : j + stride * ow : stride,
                        ] += contrib.transpose(0, 3, 1, 2)
            g = dxp
            if padding:
                g = dxp[:, :, padding : padding + h, padding : padding + w]
            _send_input_grad(xs, g, dxp, inner, relu_in)
        if gfm is not None:
            pool.release(gfm)

    parents = (*xs, weight) if bias is None else (*xs, weight, bias)
    return Tensor._make(out, parents, backward)


@_op("ops_conv.conv_transpose2d")
def conv_transpose2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2D transposed convolution (fractionally-strided convolution).

    Parameters
    ----------
    x : Tensor of shape (N, C_in, H, W)
    weight : Tensor of shape (C_in, C_out, KH, KW)
    """
    check_conv_args(stride, padding)
    _check_conv_shapes([x.shape], weight.shape, bias, bias_axis=1)
    n, c, h, w = x.shape
    _, f, kh, kw = weight.shape
    oh = (h - 1) * stride + kh - 2 * padding
    ow = (w - 1) * stride + kw - 2 * padding
    if oh <= 0 or ow <= 0:
        raise ValueError("conv_transpose output would be empty")

    full_shape = (n, f, (h - 1) * stride + kh, (w - 1) * stride + kw)
    full = np.zeros(full_shape, dtype=x.data.dtype)
    for i in range(kh):
        for j in range(kw):
            # (N, H, W, F) contribution from kernel tap (i, j)
            contrib = np.tensordot(x.data, weight.data[:, :, i, j], axes=([1], [0]))
            full[:, :, i : i + stride * h : stride, j : j + stride * w : stride] += (
                contrib.transpose(0, 3, 1, 2)
            )
    out = full[:, :, padding : padding + oh, padding : padding + ow]
    if bias is not None:
        out = out + bias.data.reshape(1, f, 1, 1)

    def backward(grad):
        pool = default_pool()
        gfull = pool.acquire(full_shape, grad.dtype, zero=True)
        gfull[:, :, padding : padding + oh, padding : padding + ow] = grad
        # Each tap's window of the gradient, as the forward wrote it.
        gslices = [
            (i, j, gfull[:, :, i : i + stride * h : stride,
                         j : j + stride * w : stride])
            for i in range(kh) for j in range(kw)
        ]
        if x.requires_grad:
            dx = pool.acquire(x.data.shape, x.data.dtype, zero=True)
            for i, j, gslice in gslices:
                dx += np.tensordot(
                    gslice, weight.data[:, :, i, j], axes=([1], [1])
                ).transpose(0, 3, 1, 2)
            x._accumulate(dx, donate=True)
        if weight.requires_grad:
            dw = pool.acquire(weight.data.shape, weight.data.dtype)
            for i, j, gslice in gslices:
                dw[:, :, i, j] = np.tensordot(
                    x.data, gslice, axes=([0, 2, 3], [0, 2, 3])
                )
            weight._accumulate(dw, donate=True)
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2, 3)), donate=True)
        pool.release(gfull)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor._make(out, parents, backward)


def check_pool_kernel(kernel) -> None:
    """Reject a pooling window that is not a whole number of pixels:
    0 divides by zero, a negative one indexes backwards."""
    if not isinstance(kernel, (int, np.integer)) or kernel < 1:
        raise ValueError(f"kernel must be an integer >= 1, got {kernel!r}")


def _check_pool_args(shape, kernel: int, stride: int | None, op: str) -> None:
    check_pool_kernel(kernel)
    if stride is not None and stride != kernel:
        raise NotImplementedError(f"{op} requires stride == kernel")
    _, _, h, w = shape
    if h % kernel or w % kernel:
        raise ValueError(
            f"spatial dims ({h}, {w}) must be divisible by kernel {kernel}"
        )


def _taps(a: np.ndarray, k: int) -> list:
    """The ``k*k`` strided views ``a[:, :, i::k, j::k]`` — one per
    offset inside a non-overlapping ``k x k`` window.  Combining them
    elementwise replaces a two-axis reduce over ``(N, C, OH, k, OW, k)``
    whose inner run is only ``k`` elements long."""
    return [a[:, :, i::k, j::k] for i in range(k) for j in range(k)]


def _tap_reduce(ufunc, taps: list) -> np.ndarray:
    """Fold ``ufunc`` over ``taps`` into one contiguous array."""
    out = taps[0].copy()
    for tap in taps[1:]:
        ufunc(out, tap, out=out)
    return out


@_op("ops_conv.max_pool2d")
def max_pool2d(x: Tensor, kernel: int, stride: int | None = None) -> Tensor:
    """Max pooling.  Only non-overlapping pooling (stride == kernel) is
    supported, which covers every model in this library.  Tied maxima
    split the gradient equally; in a window holding NaN, ``np.maximum``
    returns NaN, and the NaN positions are its maxima."""
    _check_pool_args(x.shape, kernel, stride, "max_pool2d")
    taps = _taps(x.data, kernel)
    out = _tap_reduce(np.maximum, taps)

    def backward(grad):
        pool = default_pool()
        masks = pool.acquire((len(taps), *out.shape), np.bool_)
        ties = pool.acquire(out.shape, np.min_scalar_type(len(taps)), zero=True)
        nan_max = out.dtype.kind == "f" and np.isnan(out).any()
        for tap, mask in zip(taps, masks):
            np.equal(tap, out, out=mask)
            if nan_max:  # NaN != NaN: mark the NaN taps by hand
                mask |= np.isnan(tap)
            ties += mask
        # Each tied maximum gets grad / ties: divided once, into a
        # data-dtype buffer (an int64 count made it float64).
        share = pool.acquire(out.shape, out.dtype)
        np.divide(grad, ties, out=share)
        dx = pool.acquire(x.shape, out.dtype)
        for dx_tap, mask in zip(_taps(dx, kernel), masks):
            np.multiply(share, mask, out=dx_tap)
        for scratch in (masks, ties, share):
            pool.release(scratch)
        x._accumulate(dx, donate=True)

    return Tensor._make(out, (x,), backward)


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Average over the spatial dims: (N, C, H, W) -> (N, C)."""
    return x.mean(axis=(2, 3))
