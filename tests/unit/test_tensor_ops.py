"""Tensor arithmetic, broadcasting, reductions, and shape ops."""

import numpy as np
import pytest

from repro.tensor import Tensor, concatenate, stack, zeros

from tests.conftest import assert_grad_close, numeric_gradient


class TestConstruction:
    def test_float64_downcast(self):
        t = Tensor(np.zeros(3, dtype=np.float64))
        assert t.dtype == np.float32

    def test_int_upcast(self):
        t = Tensor(np.zeros(3, dtype=np.int32))
        assert t.dtype == np.int64

    def test_scalar(self):
        t = Tensor(3.5)
        assert t.item() == pytest.approx(3.5)
        assert t.shape == ()

    def test_factories(self):
        assert zeros((2, 3)).shape == (2, 3)

    def test_repr_mentions_grad(self):
        assert "requires_grad" in repr(Tensor([1.0], requires_grad=True))
        assert "requires_grad" not in repr(Tensor([1.0]))

    def test_detach_shares_data(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        d = t.detach()
        assert not d.requires_grad
        assert d.data is t.data

    def test_len_and_size(self):
        t = zeros((3, 4))
        assert len(t) == 3
        assert t.size == 12
        assert t.ndim == 2


class TestArithmetic:
    def test_add(self):
        out = Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])
        assert out.data.tolist() == [4.0, 6.0]

    def test_add_scalar_and_radd(self):
        assert (Tensor([1.0]) + 2).item() == 3.0
        assert (2 + Tensor([1.0])).item() == 3.0

    def test_sub_rsub(self):
        assert (Tensor([5.0]) - 2).item() == 3.0

    def test_mul_div(self):
        assert (Tensor([3.0]) * Tensor([4.0])).item() == 12.0

    def test_neg_pow(self):
        assert (-Tensor([2.0])).item() == -2.0
        assert (Tensor([3.0]) ** 2).item() == 9.0

    def test_pow_requires_scalar(self):
        with pytest.raises(TypeError):
            Tensor([2.0]) ** Tensor([2.0])


class TestBroadcasting:
    def test_forward_broadcast(self):
        a = Tensor(np.ones((3, 1)))
        b = Tensor(np.ones((1, 4)))
        assert (a + b).shape == (3, 4)

    def test_grad_unbroadcast_add(self, rng):
        a = Tensor(rng.random((3, 1), dtype=np.float32), requires_grad=True)
        b = Tensor(rng.random((1, 4), dtype=np.float32), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad.shape == (3, 1)
        assert b.grad.shape == (1, 4)
        np.testing.assert_allclose(a.grad, np.full((3, 1), 4.0))
        np.testing.assert_allclose(b.grad, np.full((1, 4), 3.0))

    def test_grad_unbroadcast_mul(self, rng):
        a = Tensor(rng.random((2, 3), dtype=np.float32), requires_grad=True)
        b = Tensor(rng.random((3,), dtype=np.float32), requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(
            b.grad, a.data.sum(axis=0), rtol=1e-5
        )

    def test_scalar_broadcast_grad(self):
        a = Tensor(2.0, requires_grad=True)
        b = Tensor(np.ones((2, 2), dtype=np.float32))
        (a * b).sum().backward()
        assert a.grad == pytest.approx(4.0)


class TestUnaryGradients:
    @pytest.mark.parametrize(
        "op",
        ["exp", "log", "tanh", "relu"],
    )
    def test_unary_gradcheck(self, op, rng):
        base = rng.random((3, 4)).astype(np.float32) + 0.5
        t = Tensor(base.copy(), requires_grad=True)

        def fn():
            return getattr(t, op)().sum()

        fn().backward()
        numeric = numeric_gradient(fn, t)
        assert_grad_close(t.grad, numeric)
        t.zero_grad()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_same_bits_as_the_branching_logistic(self, dtype, rng):
        """The fused LSTM gates' branch-free logistic must give the bits
        of the piecewise form it replaced — ``1/(1+e)`` for ``x >= 0``,
        ``e/(1+e)`` below, ``e = exp(-|x|)`` — special values and
        strided views included; written in place, it leaves every
        element outside the view as it was."""
        from repro.tensor.ops_fused import _logistic_in_place

        def branching(x):
            e = np.exp(-np.abs(x))
            return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e)).astype(
                x.dtype, copy=False
            )

        special = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-40, -1e-40,
                   88.0, -88.0, 745.0, -745.0, 1.0, -1.0]
        views = (
            lambda a: a,
            lambda a: a.reshape(-1, 7)[:, 2:5],
            lambda a: a[5:6].reshape(()),
        )
        for scale in (1.0, 10.0, 100.0):
            x = np.concatenate(
                [special, rng.standard_normal(20_000) * scale]
            ).astype(dtype)
            for view in views:
                buf = x.copy()
                target = view(buf)
                assert np.shares_memory(target, buf)
                got = _logistic_in_place(
                    target, np.empty(target.shape, dtype),
                    np.empty(target.shape, np.bool_),
                )
                assert got is target
                assert got.dtype == dtype and got.shape == view(x).shape
                assert got.tobytes() == branching(view(x)).tobytes()
                untouched = np.ones(x.shape, bool)
                view(untouched)[...] = False
                assert buf[untouched].tobytes() == x[untouched].tobytes()
        edges = np.array([-np.inf, 0.0, np.inf], dtype=dtype)
        _logistic_in_place(edges, np.empty(3, dtype), np.empty(3, np.bool_))
        assert edges.tolist() == [0.0, 0.5, 1.0]


class TestReductions:
    def test_sum_axis_keepdims(self, rng):
        t = Tensor(rng.random((2, 3, 4), dtype=np.float32))
        np.testing.assert_allclose(
            t.sum(axis=1).data, t.data.sum(axis=1), rtol=1e-6
        )
        assert t.sum(axis=1, keepdims=True).shape == (2, 1, 4)

    def test_sum_grad(self):
        t = Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
        t.sum(axis=0).sum().backward()
        np.testing.assert_allclose(t.grad, np.ones((2, 3)))

    def test_mean(self, rng):
        t = Tensor(rng.random((4, 5), dtype=np.float32), requires_grad=True)
        t.mean().backward()
        np.testing.assert_allclose(t.grad, np.full((4, 5), 1 / 20), rtol=1e-5)

    def test_mean_tuple_axis(self, rng):
        t = Tensor(rng.random((2, 3, 4), dtype=np.float32))
        np.testing.assert_allclose(
            t.mean(axis=(0, 2)).data, t.data.mean(axis=(0, 2)), rtol=1e-5
        )

    def test_max_grad_spreads_over_ties(self):
        t = Tensor([1.0, 3.0, 3.0], requires_grad=True)
        t.max().backward()
        np.testing.assert_allclose(t.grad, [0.0, 0.5, 0.5])

    def test_max_grad_goes_to_the_nan(self):
        # A slice holding NaN has maximum NaN: its gradient goes to the
        # NaN position(s), not NaN over the whole slice.
        t = Tensor([[1.0, np.nan, 3.0], [4.0, 2.0, 4.0]], requires_grad=True)
        t.max(axis=1).sum().backward()
        np.testing.assert_array_equal(t.grad, [[0.0, 1.0, 0.0], [0.5, 0.0, 0.5]])

    def test_max_axis(self, rng):
        t = Tensor(rng.random((3, 4), dtype=np.float32))
        np.testing.assert_allclose(
            t.max(axis=1).data, t.data.max(axis=1)
        )

    @pytest.mark.parametrize("axis,keepdims", [
        (None, False), (1, False), (1, True), ((0, 2), False),
    ])
    def test_max_grad_stays_float32(self, rng, accumulated, axis, keepdims):
        # Ties on purpose: values drawn from four levels.
        data = rng.integers(0, 4, (3, 4, 5)).astype(np.float32)
        t = Tensor(data, requires_grad=True)
        out = t.max(axis=axis, keepdims=keepdims)
        upstream = rng.random(out.shape, dtype=np.float32) - 0.5
        out.backward(upstream)
        assert [dtype for who, dtype in accumulated if who is t] == [np.float32]
        # The former backward divided by the int64 tie count (a float64
        # array, downcast on accumulate).  A float32 quotient by a small
        # integer rounds to the same float32 whether it is formed
        # directly or through float64 (53 >= 2 * 24 + 2 bits), so the
        # gradient is unchanged bit for bit.
        axes = axis if axis is not None else (0, 1, 2)
        peak = data.max(axis=axes, keepdims=True)
        mask = data == peak
        g = upstream.reshape(peak.shape)
        former = (mask * g / mask.sum(axis=axes, keepdims=True)).astype(np.float32)
        assert t.grad.tobytes() == former.tobytes()


class TestShapeOps:
    def test_reshape_roundtrip_grad(self, rng):
        t = Tensor(rng.random((2, 6), dtype=np.float32), requires_grad=True)
        t.reshape(3, 4).sum().backward()
        assert t.grad.shape == (2, 6)

    def test_reshape_tuple_arg(self):
        t = zeros((2, 6))
        assert t.reshape((3, 4)).shape == (3, 4)

    def test_flatten(self):
        t = zeros((2, 3, 4))
        assert t.flatten(start_axis=1).shape == (2, 12)

    def test_getitem_slice_grad(self):
        t = Tensor(np.arange(6, dtype=np.float32), requires_grad=True)
        t[2:5].sum().backward()
        np.testing.assert_allclose(t.grad, [0, 0, 1, 1, 1, 0])

    def test_getitem_fancy_grad_accumulates(self):
        t = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        idx = np.array([0, 0, 2])
        t[idx].sum().backward()
        np.testing.assert_allclose(t.grad, [2.0, 0.0, 1.0])

    def test_getitem_tensor_key(self):
        t = Tensor(np.arange(4, dtype=np.float32))
        key = Tensor(np.array([1, 3]))
        assert t[key].data.tolist() == [1.0, 3.0]


class TestCombinators:
    def test_concatenate_values_and_grad(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0], requires_grad=True)
        out = concatenate([a, b])
        assert out.data.tolist() == [1.0, 2.0, 3.0]
        (out * Tensor([1.0, 2.0, 3.0])).sum().backward()
        assert a.grad.tolist() == [1.0, 2.0]
        assert b.grad.tolist() == [3.0]

    def test_concatenate_axis1(self, rng):
        a = Tensor(rng.random((2, 2), dtype=np.float32))
        b = Tensor(rng.random((2, 3), dtype=np.float32))
        assert concatenate([a, b], axis=1).shape == (2, 5)

    def test_stack_grad(self):
        a = Tensor([1.0], requires_grad=True)
        b = Tensor([2.0], requires_grad=True)
        out = stack([a, b], axis=0)
        assert out.shape == (2, 1)
        (out * Tensor([[2.0], [3.0]])).sum().backward()
        assert a.grad.tolist() == [2.0]
        assert b.grad.tolist() == [3.0]
