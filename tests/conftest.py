"""Shared test fixtures."""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads (as benchmarks/pipeline/run.py
# does): with numpy's default two, a second busy process makes the
# accelerated conv epochs up to 10x slower and the timing tests flake.
os.environ.update(
    {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
)

import numpy as np  # noqa: E402
import pytest  # noqa: E402


def pytest_collection_modifyitems(items):
    """Auto-mark everything under tests/property/ with ``property``
    so ``-m "not property"`` works without per-file boilerplate."""
    for item in items:
        path = str(getattr(item, "path", getattr(item, "fspath", "")))
        if "/tests/property/" in path.replace("\\", "/"):
            item.add_marker(pytest.mark.property)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def accumulated(monkeypatch) -> list:
    """Spy on ``Tensor._accumulate``: the returned list collects one
    ``(tensor, gradient dtype)`` per call made while the test runs."""
    from repro.tensor import Tensor

    calls = []
    accumulate = Tensor._accumulate

    def spy(self, grad, donate=False):
        calls.append((self, grad.dtype))
        accumulate(self, grad, donate)

    monkeypatch.setattr(Tensor, "_accumulate", spy)
    return calls


@pytest.fixture(scope="session")
def dataset_root(tmp_path_factory) -> str:
    """Session-wide dataset cache so generators run once."""
    return str(tmp_path_factory.mktemp("datasets"))


def numeric_gradient(fn, tensor, eps: float = 1e-3) -> np.ndarray:
    """Central-difference gradient of scalar ``fn()`` wrt ``tensor``."""
    grad = np.zeros_like(tensor.data, dtype=np.float64)
    flat = tensor.data.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        up = fn().item()
        flat[i] = original - eps
        down = fn().item()
        flat[i] = original
        out[i] = (up - down) / (2 * eps)
    return grad


def assert_grad_close(analytic, numeric, rtol: float = 2e-2):
    """Relative max-norm comparison suitable for float32 numerics."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = max(np.abs(numeric).max(), 1e-6)
    rel = np.abs(analytic - numeric).max() / denom
    assert rel < rtol, f"gradient mismatch: rel err {rel:.2e}"
