"""Weight initialization schemes."""

from __future__ import annotations

import numpy as np

from repro.utils.rng import default_rng


def _fan_in_out(shape: tuple) -> tuple[int, int]:
    if len(shape) == 2:  # Linear: (out, in)
        return shape[1], shape[0]
    if len(shape) == 4:  # Conv: (out, in, kh, kw)
        receptive = shape[2] * shape[3]
        return shape[1] * receptive, shape[0] * receptive
    size = int(np.prod(shape))
    return size, size


def kaiming_uniform(shape, rng=None) -> np.ndarray:
    """He uniform initialization (for ReLU networks)."""
    fan_in, _ = _fan_in_out(tuple(shape))
    bound = np.sqrt(6.0 / fan_in)
    gen = default_rng(rng)
    return gen.uniform(-bound, bound, size=shape).astype(np.float32)


def zeros(shape) -> np.ndarray:
    return np.zeros(shape, dtype=np.float32)


def ones(shape) -> np.ndarray:
    return np.ones(shape, dtype=np.float32)
