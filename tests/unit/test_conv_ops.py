"""Convolution/pooling primitives: gradients, backends, error cases."""

import warnings

import numpy as np
import pytest

from repro.nn import MaxPool2d
from repro.tensor import pool as pool_module
from repro.tensor import Tensor, use_backend
from repro.tensor.backend import get_backend, set_backend
from repro.tensor.pool import ArrayPool
from repro.tensor.ops_conv import (
    conv2d,
    conv_transpose2d,
    conv_windows,
    global_avg_pool2d,
    max_pool2d,
)

from tests.conftest import assert_grad_close, numeric_gradient
from tests.tensor_oracle import oracle_max_pool2d


def _rand(rng, shape, grad=True):
    return Tensor(rng.random(shape, dtype=np.float32) - 0.5, requires_grad=grad)


# The accelerated kernel's shape space: both input-gradient forms
# (correlation needs stride 1, padding <= k - 1 and F <= C; everything
# else scatters), square and oblong kernels, padding beyond the kernel,
# strides, a single sample.
# (x shape, weight shape, stride, padding)
KERNEL_SHAPES = {
    "f_lt_c": ((2, 4, 5, 6), (2, 4, 3, 3), 1, 1),
    "f_eq_c": ((2, 3, 5, 6), (3, 3, 3, 3), 1, 1),
    "f_gt_c": ((2, 2, 5, 6), (5, 2, 3, 3), 1, 1),
    "f_eq_c_no_padding": ((2, 3, 5, 6), (3, 3, 3, 3), 1, 0),
    "f_eq_c_full_padding": ((2, 3, 4, 4), (3, 3, 3, 3), 1, 2),
    "kh_ne_kw": ((2, 3, 6, 5), (2, 3, 3, 2), 1, 1),
    "kh_ne_kw_f_gt_c": ((2, 2, 6, 5), (3, 2, 2, 3), 1, 1),
    "one_by_one_padded": ((2, 3, 4, 5), (2, 3, 1, 1), 1, 1),
    "one_by_one": ((2, 3, 4, 5), (3, 3, 1, 1), 1, 0),
    "stride_2": ((2, 3, 7, 6), (2, 3, 3, 3), 2, 0),
    "stride_2_padded": ((2, 3, 7, 6), (4, 3, 3, 3), 2, 1),
    "single_sample": ((1, 3, 5, 5), (3, 3, 3, 3), 1, 1),
    "single_sample_f_gt_c": ((1, 2, 5, 5), (4, 2, 3, 3), 1, 1),
}
kernel_shapes = pytest.mark.parametrize(
    "x_shape,w_shape,stride,padding",
    list(KERNEL_SHAPES.values()),
    ids=list(KERNEL_SHAPES),
)


def _owns(grad):
    return grad.base is None and grad.flags.owndata and grad.flags.c_contiguous


def _rand64(rng, shape):
    """A float64 leaf: the kernel under test then runs (and must hand
    back its gradient) in float64.  Op *outputs* are still stored as
    float32 — ``Tensor`` downcasts them — so the finite-difference side
    carries float32 rounding of the loss; 1e-3 relative is what that
    leaves at ``eps = 1e-3``."""
    return Tensor(rng.random(shape) - 0.5, requires_grad=True, dtype=np.float64)


def _relu_like(rng, shape):
    """Post-ReLU activations: about half the entries exactly +0.0, so
    most 2x2 windows hold a tie and many are all-zero four-way ties."""
    return np.maximum(rng.random(shape, dtype=np.float32) - 0.5, 0)


def _constant_blocks(rng, shape):
    """4x4 constant patches: every pooling window is an all-way tie."""
    n, c, h, w = shape
    coarse = rng.integers(-3, 4, (n, c, -(-h // 4), -(-w // 4)))
    return np.repeat(np.repeat(coarse, 4, axis=2), 4, axis=3)[
        :, :, :h, :w
    ].astype(np.float32)


class TestConv2d:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (2, 0)])
    def test_gradcheck(self, rng, stride, padding):
        x = _rand(rng, (2, 3, 6, 6))
        w = _rand(rng, (4, 3, 3, 3))
        b = _rand(rng, (4,))

        def fn():
            return (conv2d(x, w, b, stride=stride, padding=padding) ** 2).sum()

        fn().backward()
        for t in (x, w, b):
            assert_grad_close(t.grad, numeric_gradient(fn, t))
            t.zero_grad()

    @kernel_shapes
    @pytest.mark.parametrize("with_bias", [True, False], ids=["bias", "no_bias"])
    @pytest.mark.parametrize("activation", [None, "relu"])
    def test_gradcheck_shape_space(
        self, rng, x_shape, w_shape, stride, padding, with_bias, activation
    ):
        x = _rand(rng, x_shape)
        w = _rand(rng, w_shape)
        b = _rand(rng, (w_shape[0],)) if with_bias else None

        def fn():
            out = conv2d(
                x, w, b, stride=stride, padding=padding, activation=activation
            )
            return (out ** 2).sum()

        out = conv2d(x, w, b, stride=stride, padding=padding, activation=activation)
        assert out.data.flags.c_contiguous
        fn().backward()
        assert _owns(x.grad) and _owns(w.grad)
        for t in (x, w) + ((b,) if with_bias else ()):
            assert_grad_close(t.grad, numeric_gradient(fn, t))

    @kernel_shapes
    def test_backends_agree_shape_space(
        self, rng, x_shape, w_shape, stride, padding
    ):
        x_data = rng.random(x_shape, dtype=np.float32) - 0.5
        w_data = rng.random(w_shape, dtype=np.float32) - 0.5
        b_data = rng.random(w_shape[0], dtype=np.float32) - 0.5
        got = {}
        for backend in ("accelerated", "naive"):
            x, w, b = (
                Tensor(d.copy(), requires_grad=True)
                for d in (x_data, w_data, b_data)
            )
            with use_backend(backend):
                out = conv2d(
                    x, w, b, stride=stride, padding=padding, activation="relu"
                )
                (out ** 2).sum().backward()
            got[backend] = (out.data, x.grad, w.grad, b.grad)
        for fast, slow in zip(got["accelerated"], got["naive"]):
            np.testing.assert_allclose(fast, slow, rtol=1e-4, atol=1e-5)

    @pytest.mark.parametrize("w_shape", [(2, 3, 3, 3), (4, 3, 3, 3)])
    def test_input_without_grad(self, rng, w_shape):
        x = _rand(rng, (2, 3, 5, 5), grad=False)
        w = _rand(rng, w_shape)

        def fn():
            return (conv2d(x, w, padding=1) ** 2).sum()

        fn().backward()
        assert x.grad is None
        assert_grad_close(w.grad, numeric_gradient(fn, w))

    @pytest.mark.parametrize("w_shape", [(3, 3, 3, 3), (5, 3, 3, 3)])
    def test_non_contiguous_input(self, rng, w_shape):
        base = rng.random((7, 2, 3, 8), dtype=np.float32) - 0.5
        # (N, C, H, W) = (2, 3, 6, 4): transposed and sliced, no copy.
        x = Tensor(base.transpose(1, 2, 0, 3)[:, :, 1:, ::2], requires_grad=True)
        assert not x.data.flags.c_contiguous and x.data.base is not None
        w = _rand(rng, w_shape)
        dense = Tensor(np.ascontiguousarray(x.data), requires_grad=True)

        out = conv2d(x, w)
        assert out.data.flags.c_contiguous
        np.testing.assert_array_equal(out.data, conv2d(dense, w).data)
        (out ** 2).sum().backward()
        w_grad = w.grad
        w.zero_grad()
        (conv2d(dense, w) ** 2).sum().backward()
        np.testing.assert_array_equal(x.grad, dense.grad)
        np.testing.assert_array_equal(w_grad, w.grad)

    def test_mixed_dtypes(self, rng):
        x = _rand(rng, (2, 3, 5, 5))
        for f in (2, 4):  # both input-gradient forms
            w = Tensor(rng.random((f, 3, 3, 3)) - 0.5, requires_grad=True,
                       dtype=np.float64)
            conv2d(x, w, padding=1).sum().backward()
            assert w.grad.dtype == np.float64
            assert x.grad.dtype == np.float32

    @pytest.mark.parametrize("op", [conv2d, conv_transpose2d])
    @pytest.mark.parametrize(
        "kwargs",
        [{"stride": 0}, {"stride": -1}, {"stride": 1.5}, {"padding": -1},
         {"padding": 0.5}],
    )
    def test_bad_stride_padding_rejected(self, rng, op, kwargs):
        x = _rand(rng, (1, 2, 5, 5))
        w = _rand(rng, (2, 2, 3, 3))
        with pytest.raises(ValueError, match="stride|padding"):
            op(x, w, **kwargs)

    def test_window_view_is_bounds_checked_and_read_only(self, rng):
        xp = rng.random((1, 2, 5, 5), dtype=np.float32)
        with pytest.raises(ValueError, match="outside"):
            conv_windows(xp, 3, 3, 1, 4, 3)  # 4 output rows need 6 input rows
        with pytest.raises(ValueError, match="outside"):
            conv_windows(xp, 3, 3, 2, 2, 3)  # 3 columns at stride 2 need 7
        view = conv_windows(xp, 3, 3, 2, 2, 2)
        assert view.shape == (2, 3, 3, 1, 2, 2)
        assert not view.flags.writeable
        np.testing.assert_array_equal(view[1, 2, 0, 0], xp[0, 1, 2::2, 0:3:2])

    def test_output_shape(self, rng):
        x = _rand(rng, (1, 2, 8, 8), grad=False)
        w = _rand(rng, (5, 2, 3, 3), grad=False)
        out = conv2d(x, w, stride=2, padding=1)
        assert out.shape == (1, 5, 4, 4)

    def test_channel_mismatch(self, rng):
        with pytest.raises(ValueError, match="channels"):
            conv2d(_rand(rng, (1, 3, 4, 4)), _rand(rng, (2, 4, 3, 3)))

    def test_empty_output_rejected(self, rng):
        with pytest.raises(ValueError, match="empty"):
            conv2d(_rand(rng, (1, 1, 2, 2)), _rand(rng, (1, 1, 5, 5)))

    @pytest.mark.parametrize("op", ["conv2d", "conv_transpose2d"])
    @pytest.mark.parametrize("case", ["bias", "input_rank", "weight_rank"])
    def test_bad_shapes_raise_before_any_buffer(self, rng, monkeypatch, op, case):
        # A bias of 5 against 4 filters used to fail inside the forward
        # kernel, after the padded input, column buffer and gemm scratch
        # were acquired and never released; a 3-D input failed to unpack.
        pool = ArrayPool()
        monkeypatch.setattr(pool_module, "_DEFAULT", pool)
        x, w = _rand(rng, (2, 3, 5, 5)), _rand(rng, (4, 3, 3, 3))
        if op == "conv_transpose2d":
            w = _rand(rng, (3, 4, 3, 3))
        b = _rand(rng, (4,))
        if case == "bias":
            b = _rand(rng, (5,))
        elif case == "input_rank":
            x = _rand(rng, (3, 5, 5))
        else:
            w = _rand(rng, (4, 3, 3))
        fn = conv2d if op == "conv2d" else conv_transpose2d
        before = (dict(pool._out), pool.stats())
        with pytest.raises(ValueError) as err:
            fn(x, w, b, padding=1)
        bad = {"bias": b, "input_rank": x, "weight_rank": w}[case]
        assert str(bad.shape) in str(err.value)
        assert (dict(pool._out), pool.stats()) == before

    def test_input_parts_must_agree_outside_channels(self, rng):
        with pytest.raises(ValueError, match=r"\(2, 1, 5, 4\)"):
            conv2d(
                [_rand(rng, (2, 1, 5, 5)), _rand(rng, (2, 1, 5, 4))],
                _rand(rng, (3, 2, 3, 3)),
            )

    def test_backends_agree_forward(self, rng):
        x = _rand(rng, (2, 3, 7, 7), grad=False)
        w = _rand(rng, (4, 3, 3, 3), grad=False)
        b = _rand(rng, (4,), grad=False)
        with use_backend("accelerated"):
            fast = conv2d(x, w, b, stride=2, padding=1).data
        with use_backend("naive"):
            slow = conv2d(x, w, b, stride=2, padding=1).data
        np.testing.assert_allclose(fast, slow, rtol=1e-5, atol=1e-6)

    def test_backends_agree_backward(self, rng):
        grads = {}
        for backend in ("accelerated", "naive"):
            x = Tensor(
                np.linspace(-1, 1, 2 * 2 * 5 * 5, dtype=np.float32).reshape(
                    2, 2, 5, 5
                ),
                requires_grad=True,
            )
            w = Tensor(
                np.linspace(-0.5, 0.5, 3 * 2 * 9, dtype=np.float32).reshape(
                    3, 2, 3, 3
                ),
                requires_grad=True,
            )
            with use_backend(backend):
                (conv2d(x, w, padding=1) ** 2).sum().backward()
            grads[backend] = (x.grad.copy(), w.grad.copy())
        np.testing.assert_allclose(
            grads["accelerated"][0], grads["naive"][0], rtol=1e-4, atol=1e-5
        )
        np.testing.assert_allclose(
            grads["accelerated"][1], grads["naive"][1], rtol=1e-4, atol=1e-5
        )

    def test_known_values(self):
        # Identity 1x1 kernel reproduces the input.
        x = Tensor(np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4))
        w = Tensor(np.ones((1, 1, 1, 1), dtype=np.float32))
        np.testing.assert_allclose(conv2d(x, w).data, x.data)

    def test_backend_switch_api(self):
        assert get_backend() == "accelerated"
        set_backend("naive")
        assert get_backend() == "naive"
        set_backend("accelerated")
        with pytest.raises(ValueError):
            set_backend("gpu")


class TestConvTranspose2d:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (2, 0), (2, 1)])
    def test_gradcheck(self, rng, stride, padding):
        x = _rand(rng, (2, 3, 4, 4))
        w = _rand(rng, (3, 2, 3, 3))

        def fn():
            return (
                conv_transpose2d(x, w, stride=stride, padding=padding) ** 2
            ).sum()

        fn().backward()
        for t in (x, w):
            assert_grad_close(t.grad, numeric_gradient(fn, t))
            t.zero_grad()

    def test_inverts_strided_shape(self, rng):
        x = _rand(rng, (1, 4, 5, 5), grad=False)
        w = _rand(rng, (4, 2, 2, 2), grad=False)
        out = conv_transpose2d(x, w, stride=2)
        assert out.shape == (1, 2, 10, 10)

    def test_bias(self, rng):
        x = _rand(rng, (1, 2, 3, 3), grad=False)
        w = Tensor(np.zeros((2, 3, 2, 2), dtype=np.float32))
        b = Tensor(np.array([1.0, 2.0, 3.0], dtype=np.float32))
        out = conv_transpose2d(x, w, b)
        np.testing.assert_allclose(out.data[0, 0], 1.0)
        np.testing.assert_allclose(out.data[0, 2], 3.0)

    def test_channel_mismatch(self, rng):
        with pytest.raises(ValueError, match="channels"):
            conv_transpose2d(_rand(rng, (1, 3, 4, 4)), _rand(rng, (2, 3, 2, 2)))


class TestPooling:
    def test_max_pool_values(self):
        x = Tensor(np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4))
        out = max_pool2d(x, 2)
        np.testing.assert_allclose(out.data[0, 0], [[5, 7], [13, 15]])

    def test_max_pool_gradcheck(self, rng):
        x = _rand(rng, (2, 2, 4, 4))

        def fn():
            return (max_pool2d(x, 2) ** 2).sum()

        fn().backward()
        assert_grad_close(x.grad, numeric_gradient(fn, x))

    @pytest.mark.parametrize("kernel", [1, 2, 3])
    @pytest.mark.parametrize("make", [
        lambda rng, shape: rng.random(shape, dtype=np.float32) - 0.5,
        _relu_like,
        _constant_blocks,
    ], ids=["distinct", "relu_zeros", "constant_blocks"])
    def test_max_pool_bit_identical_to_block_reduce(self, rng, kernel, make):
        # Max pooling only selects values, and its backward divides a
        # float32 gradient by a tie count <= k*k: through float64 (the
        # reference) or directly in float32 that rounds identically, so
        # the tap kernel must agree with the 6-D reduce bit for bit.
        shape = (3, 2, 6 * kernel, 4 * kernel)  # H != W
        data = make(rng, shape)
        upstream = rng.random((3, 2, 6, 4), dtype=np.float32) - 0.5
        x, ref = Tensor(data, requires_grad=True), Tensor(data, requires_grad=True)
        out = max_pool2d(x, kernel)
        expected = oracle_max_pool2d(ref, kernel)
        assert out.data.tobytes() == expected.data.tobytes()
        assert out.data.flags.c_contiguous
        out.backward(upstream)
        expected.backward(upstream)
        assert x.grad.tobytes() == ref.grad.tobytes()
        assert x.grad.dtype == np.float32 and _owns(x.grad)

    def test_max_pool_non_contiguous_input(self, rng):
        base = _relu_like(rng, (2, 4, 6, 3))
        view = base.transpose(0, 3, 1, 2)  # (2, 3, 4, 6), strided
        assert not view.flags.c_contiguous
        x = Tensor(view, requires_grad=True)
        ref = Tensor(np.ascontiguousarray(view), requires_grad=True)
        upstream = rng.random((2, 3, 2, 3), dtype=np.float32)
        out, expected = max_pool2d(x, 2), oracle_max_pool2d(ref, 2)
        out.backward(upstream)
        expected.backward(upstream)
        assert out.data.tobytes() == expected.data.tobytes()
        assert x.grad.tobytes() == ref.grad.tobytes()

    def test_max_pool_backward_stays_in_data_dtype(self, rng, accumulated):
        x = Tensor(_relu_like(rng, (2, 2, 4, 4)), requires_grad=True)
        out = max_pool2d(x, 2)
        out.backward(np.ones(out.shape, np.float32))
        assert [dtype for who, dtype in accumulated if who is x] == [np.float32]

    def test_max_pool_tie_count_cannot_overflow(self):
        # 16 * 16 = 256 tied maxima would wrap a uint8 counter to 0.
        x = Tensor(np.ones((1, 1, 16, 16), np.float32), requires_grad=True)
        max_pool2d(x, 16).sum().backward()
        np.testing.assert_array_equal(x.grad, np.float32(1 / 256))

    def test_max_pool_nan_window_sends_its_gradient_to_the_nan(self, rng):
        # np.maximum returns NaN for a window holding one, so the NaN
        # positions are its maxima: they share the window's gradient,
        # and the other inputs get none.  Every window used to give NaN
        # to all k*k inputs, with divide / invalid RuntimeWarnings.
        data = rng.random((1, 2, 4, 6), dtype=np.float32)
        data[0, 0, 0:2, 0:2] = np.nan  # an all-NaN window
        data[0, 0, 2, 3] = np.nan  # one NaN among finite values
        data[0, 1, 1, 4] = data[0, 1, 0, 5] = np.nan  # two
        upstream = rng.random((1, 2, 2, 3), dtype=np.float32) + 0.5
        x = Tensor(data, requires_grad=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = max_pool2d(x, 2)
            out.backward(upstream)
        g, u = x.grad, upstream
        np.testing.assert_array_equal(g[0, 0, 0:2, 0:2], u[0, 0, 0, 0] / 4)
        np.testing.assert_array_equal(
            g[0, 0, 2:4, 2:4], [[0, u[0, 0, 1, 1]], [0, 0]]
        )
        np.testing.assert_array_equal(
            g[0, 1, 0:2, 4:6], [[0, u[0, 1, 0, 2] / 2], [u[0, 1, 0, 2] / 2, 0]]
        )
        # Windows without NaN keep the finite kernel's bits.
        finite = np.ones((1, 2, 2, 3), bool)
        finite[0, 0, 0, 0] = finite[0, 0, 1, 1] = finite[0, 1, 0, 2] = False
        ref = Tensor(np.nan_to_num(data, nan=-1.0), requires_grad=True)
        expected = oracle_max_pool2d(ref, 2)
        expected.backward(upstream)
        keep = np.repeat(np.repeat(finite, 2, axis=2), 2, axis=3)
        assert out.data[finite].tobytes() == expected.data[finite].tobytes()
        assert g[keep].tobytes() == ref.grad[keep].tobytes()

    @pytest.mark.parametrize("kernel", [1, 2, 3])
    def test_max_pool_gradcheck_float64(self, rng, kernel):
        # Distinct values spaced > 2 * eps apart: no finite-difference
        # step crosses a tie.
        values = rng.permutation(2 * 2 * 2 * kernel * 3 * kernel) * 0.01
        x = Tensor(
            values.reshape(2, 2, 2 * kernel, 3 * kernel),
            requires_grad=True,
            dtype=np.float64,
        )

        def fn():
            return (max_pool2d(x, kernel) ** 2).sum()

        fn().backward()
        assert x.grad.dtype == np.float64
        assert_grad_close(x.grad, numeric_gradient(fn, x), rtol=1e-3)

    def test_max_pool_requires_divisible(self, rng):
        with pytest.raises(ValueError, match="divisible"):
            max_pool2d(_rand(rng, (1, 1, 5, 4)), 2)

    @pytest.mark.parametrize("kernel", [0, -2, 1.0, 2.5, "2"])
    def test_max_pool_kernel_must_be_a_positive_int(self, rng, kernel):
        # 0 divided by zero, -2 indexed backwards, 1.0 failed in range().
        with pytest.raises(ValueError, match="kernel"):
            max_pool2d(_rand(rng, (1, 1, 4, 4)), kernel)
        with pytest.raises(ValueError, match="kernel"):
            MaxPool2d(kernel)

    def test_max_pool_overlapping_unsupported(self, rng):
        with pytest.raises(NotImplementedError):
            max_pool2d(_rand(rng, (1, 1, 4, 4)), 2, stride=1)

    def test_global_avg_pool(self, rng):
        x = _rand(rng, (2, 3, 4, 4), grad=False)
        np.testing.assert_allclose(
            global_avg_pool2d(x).data, x.data.mean(axis=(2, 3)), rtol=1e-5
        )
