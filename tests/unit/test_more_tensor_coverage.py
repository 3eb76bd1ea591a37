"""Additional tensor-engine coverage: dtype behavior, edge shapes,
grad-mode interplay with modules."""

import numpy as np
import pytest

from repro import nn
from repro.tensor import Tensor, no_grad, zeros
from repro.tensor.ops_conv import conv2d


class TestDtypes:
    def test_float32_preserved_through_ops(self, rng):
        t = Tensor(rng.random(5, dtype=np.float32))
        assert (t * 2 + 1).dtype == np.float32
        assert t.exp().dtype == np.float32
        assert t.sum().dtype == np.float32

    def test_int_arithmetic(self):
        t = Tensor(np.array([1, 2, 3]))
        out = t + t
        assert out.data.tolist() == [2, 4, 6]

    def test_explicit_dtype(self):
        t = Tensor([1.0, 2.0], dtype=np.float64)
        assert t.dtype == np.float64


class TestEdgeShapes:
    def test_zero_row_batch_through_linear(self):
        layer = nn.Linear(4, 3)
        out = layer(zeros((0, 4)))
        assert out.shape == (0, 3)

    def test_zero_row_batch_through_conv(self, rng):
        w = Tensor(rng.random((2, 1, 3, 3), dtype=np.float32))
        out = conv2d(zeros((0, 1, 6, 6)), w, padding=1)
        assert out.shape == (0, 2, 6, 6)

    def test_single_pixel_conv(self, rng):
        x = Tensor(rng.random((1, 3, 1, 1), dtype=np.float32))
        w = Tensor(rng.random((4, 3, 1, 1), dtype=np.float32))
        assert conv2d(x, w).shape == (1, 4, 1, 1)

    def test_scalar_reductions(self):
        t = Tensor(5.0, requires_grad=True)
        t.sum().backward()
        assert t.grad == 1.0


class TestGradModeWithModules:
    def test_no_grad_forward_has_no_graph(self, rng):
        layer = nn.Linear(4, 4)
        x = Tensor(rng.random((2, 4), dtype=np.float32))
        with no_grad():
            out = layer(x)
        assert not out.requires_grad
        with pytest.raises(RuntimeError):
            out.sum().backward()

    def test_params_updated_only_through_graph(self, rng):
        layer = nn.Linear(2, 2)
        x = Tensor(rng.random((1, 2), dtype=np.float32))
        with no_grad():
            layer(x)
        assert layer.weight.grad is None

    def test_mixed_grad_parents(self, rng):
        a = Tensor(rng.random(3, dtype=np.float32), requires_grad=True)
        with no_grad():
            frozen = a * 2  # not tracked
        out = (frozen * a).sum()
        out.backward()
        # d/da (2a_frozen * a) treats frozen as constant.
        np.testing.assert_allclose(a.grad, frozen.data, rtol=1e-6)


class TestNumericalStability:
    def test_log_softmax_tiny_probabilities(self):
        from repro.nn import functional as F

        logits = Tensor(np.array([[0.0, -500.0]], dtype=np.float32))
        out = F.log_softmax(logits)
        assert np.isfinite(out.data[0, 0])
        assert out.data[0, 1] < -400

    def test_batchnorm_constant_input(self):
        bn = nn.BatchNorm2d(1)
        x = Tensor(np.full((4, 1, 2, 2), 5.0, dtype=np.float32))
        out = bn(x)
        assert np.isfinite(out.data).all()
