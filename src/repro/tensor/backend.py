"""Execution backend switch for compute-heavy primitives.

The paper's Figure 9 compares training on GPU vs CPU.  Without a GPU,
we reproduce the *relative* comparison with two backends that share
numerics but differ in execution strategy:

- ``accelerated``: channel-major im2col (one strided copy into a pooled
  column buffer) and one BLAS gemm per convolution, no per-pixel
  Python (:mod:`repro.tensor.ops_conv`).
- ``naive``: reference Python loops over output pixels.

Switch globally with :func:`set_backend` or locally with
:func:`use_backend`.
"""

from __future__ import annotations

from contextlib import contextmanager

ACCELERATED = "accelerated"
NAIVE = "naive"
_VALID = (ACCELERATED, NAIVE)

_current_backend = ACCELERATED


def get_backend() -> str:
    """Return the name of the active backend."""
    return _current_backend


def set_backend(name: str) -> None:
    """Set the active backend (``"accelerated"`` or ``"naive"``)."""
    global _current_backend
    if name not in _VALID:
        raise ValueError(f"unknown backend {name!r}; expected one of {_VALID}")
    _current_backend = name


@contextmanager
def use_backend(name: str):
    """Temporarily switch backends within a ``with`` block."""
    previous = get_backend()
    set_backend(name)
    try:
        yield
    finally:
        set_backend(previous)
