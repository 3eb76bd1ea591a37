"""Property-based tests of the tensor engine against numpy."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.tensor import Tensor, concatenate
from repro.tensor.ops_fused import _logistic_in_place

finite_floats = st.floats(
    min_value=-100, max_value=100, allow_nan=False, width=32
)


def small_arrays(max_dims=3, max_side=5):
    return arrays(
        dtype=np.float32,
        shape=array_shapes(min_dims=1, max_dims=max_dims, max_side=max_side),
        elements=finite_floats,
    )


@settings(max_examples=50, deadline=None)
@given(small_arrays())
def test_add_matches_numpy(a):
    np.testing.assert_allclose((Tensor(a) + Tensor(a)).data, a + a, rtol=1e-5)


@settings(max_examples=50, deadline=None)
@given(small_arrays())
def test_mul_matches_numpy(a):
    np.testing.assert_allclose((Tensor(a) * 3.0).data, a * 3.0, rtol=1e-5)


@settings(max_examples=50, deadline=None)
@given(small_arrays())
def test_sum_matches_numpy(a):
    assert np.allclose(Tensor(a).sum().item(), a.sum(dtype=np.float64), rtol=1e-3, atol=1e-3)


@settings(max_examples=50, deadline=None)
@given(small_arrays())
def test_double_negation_identity(a):
    np.testing.assert_allclose((-(-Tensor(a))).data, a)


@settings(max_examples=50, deadline=None)
@given(small_arrays())
def test_relu_idempotent(a):
    t = Tensor(a)
    once = t.relu().data
    twice = t.relu().relu().data
    np.testing.assert_allclose(once, twice)
    assert (once >= 0).all()


@settings(max_examples=50, deadline=None)
@given(small_arrays())
def test_tanh_bounded_and_odd(a):
    t = Tensor(a)
    out = t.tanh().data
    assert (np.abs(out) <= 1.0).all()
    np.testing.assert_allclose((-t).tanh().data, -out, rtol=1e-5, atol=1e-6)


@settings(max_examples=50, deadline=None)
@given(small_arrays())
def test_sigmoid_symmetry(a):
    # The logistic the fused LSTM gates apply.
    def logistic(x):
        return _logistic_in_place(
            x, np.empty(x.shape, x.dtype), np.empty(x.shape, np.bool_)
        )

    np.testing.assert_allclose(
        logistic(a.copy()) + logistic(-a), 1.0, rtol=1e-4, atol=1e-5
    )


@settings(max_examples=50, deadline=None)
@given(small_arrays(max_dims=2))
def test_reshape_preserves_content(a):
    flat = Tensor(a).reshape(-1)
    np.testing.assert_allclose(flat.data, a.reshape(-1))


@settings(max_examples=30, deadline=None)
@given(small_arrays(max_dims=1))
def test_grad_of_sum_is_ones(a):
    t = Tensor(a, requires_grad=True)
    t.sum().backward()
    np.testing.assert_allclose(t.grad, np.ones_like(a))


@settings(max_examples=30, deadline=None)
@given(small_arrays(max_dims=1), st.floats(min_value=-5, max_value=5, allow_nan=False))
def test_grad_linearity(a, k):
    """d(k * sum(x))/dx == k everywhere."""
    t = Tensor(a, requires_grad=True)
    (t.sum() * float(k)).backward()
    np.testing.assert_allclose(t.grad, np.full_like(a, np.float32(k)), rtol=1e-4, atol=1e-5)


@settings(max_examples=30, deadline=None)
@given(small_arrays(max_dims=1), small_arrays(max_dims=1))
def test_concatenate_length(a, b):
    out = concatenate([Tensor(a), Tensor(b)])
    assert out.shape[0] == a.shape[0] + b.shape[0]


@settings(max_examples=30, deadline=None)
@given(small_arrays(max_dims=2))
def test_mean_between_min_max(a):
    t = Tensor(a)
    low = -(-t).max().item()
    assert low - 1e-4 <= t.mean().item() <= t.max().item() + 1e-4
