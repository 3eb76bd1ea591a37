"""nn.functional operations not covered by the loss/layer tests."""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.tensor import Tensor

from tests.conftest import assert_grad_close, numeric_gradient


class TestLinear:
    def test_values(self, rng):
        x = Tensor(rng.random((3, 4), dtype=np.float32))
        w = Tensor(rng.random((2, 4), dtype=np.float32))
        b = Tensor(rng.random(2, dtype=np.float32))
        out = F.linear(x, w, b)
        np.testing.assert_allclose(
            out.data, x.data @ w.data.T + b.data, rtol=1e-5
        )

    def test_no_bias(self, rng):
        x = Tensor(rng.random((3, 4), dtype=np.float32))
        w = Tensor(rng.random((2, 4), dtype=np.float32))
        np.testing.assert_allclose(
            F.linear(x, w).data, x.data @ w.data.T, rtol=1e-5
        )


class TestActivationsFunctional:
    def test_softmax_gradcheck(self, rng):
        x = Tensor(rng.random((2, 4)).astype(np.float32), requires_grad=True)
        target = rng.random((2, 4)).astype(np.float32)

        def fn():
            return ((F.log_softmax(x) - Tensor(target)) ** 2).sum()

        fn().backward()
        assert_grad_close(x.grad, numeric_gradient(fn, x))

    def test_softmax_invariant_to_shift(self, rng):
        x = rng.random((3, 5)).astype(np.float32)
        a = F.log_softmax(Tensor(x)).data
        b = F.log_softmax(Tensor(x + 100.0)).data
        np.testing.assert_allclose(a, b, rtol=1e-4, atol=1e-6)


class TestDropoutFunctional:
    def test_not_training_identity(self, rng):
        x = Tensor(rng.random(10, dtype=np.float32))
        assert F.dropout(x, 0.5, training=False) is x

    def test_expected_value_preserved(self, rng):
        x = Tensor(np.ones(20_000, dtype=np.float32))
        out = F.dropout(x, 0.3, training=True, rng=rng)
        assert out.data.mean() == pytest.approx(1.0, abs=0.05)

    def test_grad_masked(self, rng):
        x = Tensor(np.ones(100, dtype=np.float32), requires_grad=True)
        out = F.dropout(x, 0.5, training=True, rng=rng)
        out.sum().backward()
        # Gradient is zero exactly where the activation was dropped.
        dropped = out.data == 0
        assert (x.grad[dropped] == 0).all()
        assert (x.grad[~dropped] == 2.0).all()
