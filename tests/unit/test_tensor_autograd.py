"""Autograd graph semantics: accumulation, no_grad, topology, errors."""

import numpy as np
import pytest

from repro.tensor import Tensor, no_grad


def is_grad_enabled() -> bool:
    """Whether an op on a tracked tensor records a graph node."""
    return (Tensor([1.0], requires_grad=True) * 2).requires_grad


class TestBackwardBasics:
    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_backward_nonscalar_needs_grad(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            (t * 2).backward()

    def test_backward_explicit_grad(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        (t * 3).backward(np.array([1.0, 2.0], dtype=np.float32))
        np.testing.assert_allclose(t.grad, [3.0, 6.0])

    def test_backward_grad_shape_mismatch(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            (t * 3).backward(np.ones(3, dtype=np.float32))

    @pytest.mark.parametrize("first", [True, False], ids=["first", "later"])
    def test_accumulate_rejects_a_gradient_of_another_shape(self, first):
        """Neither adopted as the first gradient nor broadcast into an
        existing one."""
        t = Tensor(np.zeros((2, 1), np.float32), requires_grad=True)
        if not first:
            t._accumulate(np.ones((2, 1), np.float32))
        before = None if first else t.grad.copy()
        for wrong in ((2, 2), (1, 1), (2,)):
            with pytest.raises(ValueError, match=rf"{wrong}.*\(2, 1\)"):
                t._accumulate(np.ones(wrong, np.float32), donate=True)
        if first:
            assert t.grad is None
        else:
            assert t.grad.tobytes() == before.tobytes()

    def test_grad_accumulates_across_backwards(self):
        t = Tensor([1.0], requires_grad=True)
        (t * 2).sum().backward()
        (t * 3).sum().backward()
        assert t.grad.tolist() == [5.0]

    def test_zero_grad(self):
        t = Tensor([1.0], requires_grad=True)
        (t * 2).sum().backward()
        t.zero_grad()
        assert t.grad is None


class TestGraphTopology:
    def test_diamond_graph(self):
        # y = a*a + a*a must give dy/da = 4a, with each path counted.
        a = Tensor([3.0], requires_grad=True)
        b = a * a
        (b + b).sum().backward()
        assert a.grad.tolist() == [12.0]

    def test_shared_subexpression(self):
        a = Tensor([2.0], requires_grad=True)
        s = a * 3
        out = (s * s).sum()
        out.backward()
        assert a.grad.tolist() == [2 * 3 * 3 * 2.0]  # d(9a^2)/da = 18a

    def test_deep_chain_iterative_topo(self):
        # Deep graphs must not hit Python's recursion limit.
        t = Tensor([1.0], requires_grad=True)
        out = t
        for _ in range(3000):
            out = out + 1.0
        out.sum().backward()
        assert t.grad.tolist() == [1.0]

    def test_no_grad_for_untracked_parent(self):
        a = Tensor([1.0], requires_grad=True)
        b = Tensor([2.0])
        (a * b).sum().backward()
        assert a.grad.tolist() == [2.0]
        assert b.grad is None


class TestGradMode:
    def test_no_grad_blocks_graph(self):
        t = Tensor([1.0], requires_grad=True)
        with no_grad():
            out = t * 2
        assert not out.requires_grad
        assert out._backward is None

    def test_no_grad_restores(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_no_grad_restores_on_error(self):
        try:
            with no_grad():
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert is_grad_enabled()

    def test_detach_cuts_graph(self):
        t = Tensor([2.0], requires_grad=True)
        out = (t.detach() * 3).sum()
        assert not out.requires_grad
