"""Optimizers: update math and convergence."""

import numpy as np
import pytest

from repro import nn
from repro.nn.module import Parameter
from repro.optim import Adam
from repro.tensor import Tensor
from tests.tensor_oracle import oracle_adam_step


def _param(values):
    return Parameter(np.asarray(values, dtype=np.float32))


class TestAdam:
    def test_skips_gradless(self):
        p = _param([1.0])
        Adam([p], lr=0.1).step()
        assert p.data[0] == 1.0

    def test_rejects_empty_and_bad_lr(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)
        with pytest.raises(ValueError):
            Adam([_param([1.0])], lr=0.0)

    def test_zero_grad(self):
        p = _param([1.0])
        p.grad = np.array([1.0], dtype=np.float32)
        opt = Adam([p], lr=0.1)
        opt.zero_grad()
        assert p.grad is None

    def test_first_step_magnitude(self):
        # With bias correction, the first Adam step is ~lr in magnitude.
        p = _param([0.0])
        p.grad = np.array([3.0], dtype=np.float32)
        Adam([p], lr=0.01).step()
        assert p.data[0] == pytest.approx(-0.01, rel=1e-3)

    def test_direction_follows_gradient_sign(self):
        p = _param([0.0, 0.0])
        p.grad = np.array([1.0, -1.0], dtype=np.float32)
        Adam([p], lr=0.1).step()
        assert p.data[0] < 0 < p.data[1]

    def test_converges_on_quadratic(self):
        p = _param([5.0])
        opt = Adam([p], lr=0.2)
        for _ in range(200):
            t = Tensor(p.data, requires_grad=False)
            p.grad = 2 * (p.data - 2.0)
            opt.step()
        assert p.data[0] == pytest.approx(2.0, abs=1e-2)

    def test_weight_decay(self):
        p = _param([1.0])
        p.grad = np.array([0.0], dtype=np.float32)
        opt = Adam([p], lr=0.1, weight_decay=1.0)
        opt.step()
        assert p.data[0] < 1.0

    def test_trains_linear_regression(self, rng):
        # y = 2x + 1 recovered end-to-end.
        x = rng.random((64, 1), dtype=np.float32)
        y = 2 * x + 1
        layer = nn.Linear(1, 1, rng=0)
        opt = Adam(layer.parameters(), lr=0.05)
        loss_fn = nn.MSELoss()
        for _ in range(300):
            loss = loss_fn(layer(Tensor(x)), Tensor(y))
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert layer.weight.data[0, 0] == pytest.approx(2.0, abs=0.05)
        assert layer.bias.data[0] == pytest.approx(1.0, abs=0.05)


class TestStepInPlace:
    """A step never rebinds or re-types a parameter, whichever of the
    flat and the per-parameter update runs."""

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_mixed_dtypes_match_oracle_at_own_dtype(self, weight_decay):
        rng = np.random.default_rng(0)
        dtypes = [np.float32, np.float64, np.float32]
        params = [
            Tensor(rng.standard_normal((3, 2)), requires_grad=True, dtype=d)
            for d in dtypes
        ]
        expected = [p.data.copy() for p in params]
        opt = Adam(params, lr=1e-2, weight_decay=weight_decay)
        m = [np.zeros_like(e) for e in expected]
        v = [np.zeros_like(e) for e in expected]

        bound = [p.data for p in params]
        for t in range(1, 11):
            grads = [
                rng.standard_normal(p.shape).astype(p.dtype) for p in params
            ]
            for p, g in zip(params, grads):
                p.grad = g.copy()
            opt.step()
            oracle_adam_step(
                expected, grads, m, v, t, 1e-2, weight_decay=weight_decay
            )
            for p, want, data in zip(params, expected, bound):
                assert p.data is data
                assert p.data.dtype == want.dtype
                assert np.array_equal(p.data, want)

    @pytest.mark.parametrize("others", [[], [np.float64]])
    def test_float64_gradient_leaves_float32_parameter_float32(self, others):
        params = [
            Tensor(np.ones(4), requires_grad=True, dtype=d)
            for d in [np.float32, *others]
        ]
        opt = Adam(params)
        data = params[0].data
        for _ in range(2):
            for p in params:
                p.grad = np.full(4, 0.5, dtype=np.float64)
            opt.step()
        assert params[0].data is data
        assert data.dtype == np.float32
        assert np.all(data < 1.0)

    def test_no_fused_switch(self):
        with pytest.raises(TypeError):
            Adam([_param([1.0])], fused=False)


class TestAdamArguments:
    @pytest.mark.parametrize("kwargs, name", [
        ({"lr": float("nan")}, "lr"),
        ({"lr": float("inf")}, "lr"),
        ({"lr": 0.0}, "lr"),
        ({"lr": -1e-3}, "lr"),
        ({"betas": (1.0, 0.999)}, "beta1"),
        ({"betas": (-0.1, 0.999)}, "beta1"),
        ({"betas": (0.9, 1.5)}, "beta2"),
        ({"betas": (0.9, float("nan"))}, "beta2"),
        ({"eps": -1e-8}, "eps"),
        ({"eps": float("nan")}, "eps"),
        ({"weight_decay": -0.1}, "weight_decay"),
    ])
    def test_rejects_before_touching_the_parameters(self, kwargs, name):
        # Each of these made every parameter non-finite on the first
        # step, or was accepted silently.
        p = _param([1.0, 2.0])
        data = p.data
        with pytest.raises(ValueError, match=name):
            Adam([p], **kwargs)
        assert p.data is data  # not re-bound into a flat buffer

    def test_boundary_values_are_accepted(self):
        p = _param([1.0])
        Adam([p], lr=1e-3, betas=(0.0, 0.0), eps=0.0, weight_decay=0.0)
